package fleet

import (
	"bytes"
	"os"
	"testing"
)

// maxFuzzGrid bounds a fuzzed grid's cartesian product well below
// MaxGridScenarios, so one fuzz input stays cheap to expand.
const maxFuzzGrid = 4096

// FuzzParseSpec feeds arbitrary bytes through the sweep-spec path a user's
// file takes — ParseSpec, Expand, then Config on the first 64 scenarios —
// which must reject bad input with errors, never a panic.
func FuzzParseSpec(f *testing.F) {
	smoke, err := os.ReadFile("testdata/smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, seed := range []string{
		`{"seed":3,"scenarios":[{"apps":["A2"],"scheme":1,"windows":1,"qos":2,"faults":"seed=7; link-corrupt:every=5"}]}`,
		`{"seed":1,"grid":{"apps":[["A2","A7"]],"schemes":["com","bcom"],"windows":[1,2],"faults":["mcu-crash:at=100ms"]}}`,
		`{"seed":1,"grid":{"apps":[["A6"]],"schemes":["beam"],"windows":[1],"meters":[{"rateHz":100}],"power":[{"battery":{"capacityJ":5},"harvest":"solar"}]}}`,
		`{"grid":{"apps":[["A99"]],"schemes":["warp"],"windows":[0]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		spec, err := ParseSpec(bytes.NewReader(blob))
		if err != nil {
			return
		}
		if spec.Grid != nil {
			if n, err := spec.Grid.size(); err != nil || n > maxFuzzGrid {
				return
			}
		}
		scens, err := spec.Expand()
		if err != nil {
			return
		}
		for _, s := range scens[:min(len(scens), 64)] {
			s.Config() // an error is a fine answer; a panic is the bug
		}
	})
}
