package faults

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// formatRule writes a rule back in ParseSchedule's text form, naming only
// the parameters the rule sets.
func formatRule(r Rule) string {
	var params []string
	if r.Trigger.EveryNth > 0 {
		params = append(params, "every="+strconv.Itoa(r.Trigger.EveryNth))
	}
	if r.Trigger.Period > 0 {
		params = append(params, "period="+r.Trigger.Period.String())
	}
	for _, at := range r.Trigger.At {
		params = append(params, "at="+at.String())
	}
	if r.Trigger.Prob > 0 {
		params = append(params, "prob="+strconv.FormatFloat(r.Trigger.Prob, 'g', -1, 64))
	}
	if r.Duration > 0 {
		params = append(params, "for="+r.Duration.String())
	}
	if r.Factor != 0 {
		params = append(params, "factor="+strconv.FormatFloat(r.Factor, 'g', -1, 64))
	}
	if r.Target != defaultTarget(r.Kind) {
		params = append(params, "on="+r.Target)
	}
	return r.Kind.String() + ":" + strings.Join(params, ",")
}

// FuzzParseSchedule feeds arbitrary text to the fault-schedule parser: it
// must never panic, and every rule it accepts must re-parse from its own
// text form to the identical rule.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=7; link-corrupt:every=50",
		"sensor-slow:on=S4,every=100,factor=3",
		"mcu-crash:at=1500ms,for=200ms; radio-outage:at=500ms,for=300ms",
		"link-loss:prob=0.05,period=250ms; sensor-stuck:at=1s,at=2s",
		"link-corrupt:on=radio:main,prob=1e-3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			return
		}
		for i, r := range s.Rules {
			item := formatRule(r)
			back, err := ParseSchedule(item)
			if err != nil {
				t.Fatalf("rule %d %+v re-parsing as %q: %v", i+1, r, item, err)
			}
			if len(back.Rules) != 1 || !reflect.DeepEqual(back.Rules[0], r) {
				t.Fatalf("rule %d %+v re-parsed from %q as %+v", i+1, r, item, back.Rules)
			}
		}
	})
}
