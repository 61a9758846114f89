package faults_test

import (
	"testing"

	"khsim/internal/faults"
)

// FuzzParseSpec feeds operator-supplied -spec strings to the fault-spec
// parser: malformed input must come back as an error, never a panic,
// and an accepted spec always yields at least one rule.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"crash:job:200ms,spurious::50ms,rogue:job:100ms,tlb::500ms",
		"crash:worker:100ms,spurious::50ms",
		"crash:job:200ms, spurious::50us ,rogue:job,tlb::2s,drift:job:100ns",
		"partition:node1:5ms,heal:node1:10ms,netdrop::1ms,netdelay:node0:2ms",
		"migkill:source:1ms",
		"crash:job:0ms",
		"bogus",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := faults.ParseSpec(spec)
		if err == nil && len(rules) == 0 {
			t.Fatal("ParseSpec accepted a spec with no rules")
		}
	})
}
