package sensor

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// pinnedStreams holds the SHA-256 of samples 0–1999 of each source, taken
// when every generator was still seeded in its constructor. Seeding on
// first draw must reproduce them draw for draw.
var pinnedStreams = []struct {
	name string
	seed int64
	hash string
}{
	{"S1", 1, "11c187959a7a2d699187aa9c9091c4a56831e381d8bcb3d9aacb3bcf8876bf48"},
	{"S2", 1, "a0fbde628cd4a2c6906b775ae0ea10690e8cdf702ff02c88ccec3240ae6a71ef"},
	{"S3", 1, "b7398079943f426c2c4091f0e66effd05e7cee09eef1bd95b960802bc4f1ec5d"},
	{"S4", 1, "5bb4894c11f03219be953d106fe05cc2befbfbb0cf5f24b695fff3e92d62d12d"},
	{"S5", 1, "80af2e327b4662f79b8e4d2587d1b450b8238ef3b19018c0e58b08f92313568e"},
	{"S6", 1, "91745a894d736d12e3616987695a2698cfb885410f2127a6c5a0bcdd9377251b"},
	{"S7", 1, "9bebb31c6b7de2483dacfc001023808623db33281499b6889c9ba24b152fe6d4"},
	{"S8", 1, "82f6b17dfd4394ffc7f8e33b3f6c8c11d213fb897e652320f9769ff7623d3ca9"},
	{"S9", 1, "317fc41f00bd03598e1b6e3c9f28df4afa26f4976a16b27e8ce99bd554347efa"},
	{"S10", 1, "3762ed546d5ca9234848203971f58fc833b1bbbc52181fe5e7d445631ff92463"},
	{"S10H", 1, "56d2fc46f72f2a73e2e25d6c0ae3ea5687fd2c326082a06afc81f7c709450f62"},
	{"S1", 21, "2963a326d38fff97646d4286838931d6365a78d1117823c3f1d1c3d11eef975d"},
	{"S2", 21, "2a35899618fc7deea43c62f629b25611c0b0d4855465a3a14c2fbdde8e8c3367"},
	{"S3", 21, "a126d66ee51ac2ac0dbbeea61deec0974a8d8a2e63e97460322d275b7c134e22"},
	{"S4", 21, "5a99fba28cdbc00a2c949fa93b00cf3c55e36bfcc81fc5b4d5065954c249eb13"},
	{"S5", 21, "df909e3e5f189089963989f6ccf7055ec216dd5e501a07f83fdff47ebd470e3f"},
	{"S6", 21, "5e65ebd499cc89b33e519488823060c415f906833a26779815ec88af03744a6b"},
	{"S7", 21, "9ee166abccbd7e35ce6025a45c8f60d4ced3a15a09f8c8ca5e396c93061956f2"},
	{"S8", 21, "ba14b6f4ee3c5798fa1b1652dbb3730e68b44f40e459e8388aa426343de9ac42"},
	{"S9", 21, "56918f9a60440a10f82cfbffe05c36ce4b9eab43ff6f02a98d26cae520e400b4"},
	{"S10", 21, "ba1d98eebab903301a066c90f30cc111ee332a577b560bbba0ddc3a5a2063f4e"},
	{"S10H", 21, "3e49efd7f170a594321cc5b455418dd6c9c3bb4b3b9f88943ab46af8bff68c9c"},
	// The two seeded sources DefaultSource never returns.
	{"quake", 1, "f86f41277b7f6af4d5027ffb3c842afb2fad044881baad7d464b998387c2d158"},
	{"speech", 1, "5b91bdc670d2450a81eab5403de37565401b6dee928bbceb168eb697ba981072"},
	{"quake", 21, "3edfb39f4d36bc2af1d3ebe4cd4b8e58c0e4d338c9cea374baba312749b5773f"},
	{"speech", 21, "e506d502edb91d63e8da53fb6b67274abe9b49f6af29fa7d961f7cca24a60ea5"},
}

func pinnedSource(t *testing.T, name string, seed int64) Source {
	t.Helper()
	switch name {
	case "quake":
		return NewAccelQuake(seed, 100, 1200, 300)
	case "speech":
		return NewAudioSpeech(seed, 1000, 600, 400, WordYes, WordStop, WordGo, WordNo)
	}
	src, err := DefaultSource(ID(name), seed)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSourceStreamsPinned(t *testing.T) {
	covered := map[ID]bool{}
	for _, p := range pinnedStreams {
		covered[ID(p.name)] = true
	}
	for _, sp := range All() {
		if !covered[sp.ID] {
			t.Errorf("no pinned stream for %s", sp.ID)
		}
	}
	for _, p := range pinnedStreams {
		t.Run(fmt.Sprintf("%s/seed=%d", p.name, p.seed), func(t *testing.T) {
			t.Parallel() // the S10H frames dominate; spread them over the cores
			src := pinnedSource(t, p.name, p.seed)
			h := sha256.New()
			for i := 0; i < 2000; i++ {
				h.Write(src.Sample(i))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != p.hash {
				t.Errorf("samples 0–1999 hash %s, want %s", got, p.hash)
			}
		})
	}
}

// TestUnsampledSourceAllocatesOnlyItself pins the lazy generator: building a
// source that is never sampled allocates the struct and nothing else.
func TestUnsampledSourceAllocatesOnlyItself(t *testing.T) {
	words := []AudioWord{WordYes, WordNo}
	var sink Source
	cases := map[string]func(){
		"Scalar":      func() { sink = NewScalar(7, ScalarLight) },
		"AccelWalk":   func() { sink = NewAccelWalk(7, 1000, 2) },
		"AudioSpeech": func() { sink = NewAudioSpeech(7, 1000, 600, 400, words...) },
	}
	for name, build := range cases {
		if got := testing.AllocsPerRun(20, build); got != 1 {
			t.Errorf("%s: %v allocations to build, want 1", name, got)
		}
	}
	_ = sink
}
