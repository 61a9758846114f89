package hafnium

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseManifest feeds operator-supplied manifest text to the parser:
// malformed input must come back as an error, never a panic. The seed
// corpus is every shipped manifest.
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
		if err == nil && m == nil {
			t.Fatal("ParseManifest returned neither a manifest nor an error")
		}
	})
}
