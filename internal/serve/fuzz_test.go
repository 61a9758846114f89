package serve

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"khsim/internal/sim"
)

// FuzzParseManifest feeds operator-supplied manifest text to the parser:
// malformed input must come back as an error, never a panic, and an
// accepted config must be in range: every duration positive (the crash
// mean may be 0, which disables it), the long-job fraction in [0,1] and
// every rate finite and positive. The seed corpus is every shipped
// manifest.
func FuzzParseManifest(f *testing.F) {
	paths, err := filepath.Glob("../../manifests/*.manifest")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed manifests: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseManifest(text)
		if err != nil {
			return
		}
		for _, d := range []sim.Duration{c.Run, c.Drain, c.TTL, c.RetryBackoff, c.Mix.MeanShort, c.Mix.MeanLong} {
			if d <= 0 {
				t.Fatalf("accepted non-positive duration %v in %+v", d, c)
			}
		}
		if c.CrashMean < 0 || !(c.Mix.LongFrac >= 0 && c.Mix.LongFrac <= 1) {
			t.Fatalf("accepted crash mean %v long fraction %v", c.CrashMean, c.Mix.LongFrac)
		}
		for _, r := range c.Rates {
			if !(r > 0) || math.IsInf(r, 0) {
				t.Fatalf("accepted rate %v", r)
			}
		}
	})
}
