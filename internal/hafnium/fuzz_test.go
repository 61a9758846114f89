package hafnium

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseManifest feeds operator-supplied manifest text to the parser:
// malformed input must come back as an error, never a panic, and an
// accepted manifest must be in range — positive sizes, no negative
// counts — so the fuzzer can find a value the accessors let through.
// The seed corpus is every shipped manifest.
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
		m, err := ParseManifest(text)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("ParseManifest returned neither a manifest nor an error")
		}
		for _, v := range m.VMs {
			if v.VCPUs <= 0 || v.MemMB <= 0 || v.WorkingSetPages < 0 || v.MaxRestarts < 0 || v.RestartBackoffUS < 0 {
				t.Fatalf("accepted out-of-range VM %+v", v)
			}
		}
	})
}
