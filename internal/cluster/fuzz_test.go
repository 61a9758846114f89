package cluster

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"khsim/internal/hafnium"
	"khsim/internal/sim"
)

// FuzzParseManifest feeds operator-supplied manifest text to the parser:
// malformed input must come back as an error, never a panic, and an
// accepted manifest must be in range: every duration positive (zero
// where the key is optional), every float finite and positive, every
// fault target valid for its kind, and the node plan a valid Hafnium
// manifest. The seed corpus is every shipped manifest plus one
// out-of-range target.
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
	// A target one past the node count: the parser must reject it.
	f.Add("[cluster]\nnodes = 3\n[vm primary]\nclass = primary\n[fault crash]\ntarget = node3\nat_ms = 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseManifest(text)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("ParseManifest returned neither a manifest nor an error")
		}
		p := m.Protocol
		for _, d := range []sim.Duration{m.Link.Latency, p.ElectionMin, p.ElectionJitter, p.Heartbeat, p.RPCTimeout, m.Run, m.ProposeEvery} {
			if d <= 0 {
				t.Fatalf("accepted non-positive duration %v in %+v", d, m)
			}
		}
		if bw := m.Link.Bandwidth; !(bw > 0) || math.IsInf(bw, 0) || m.SpinChunk < 0 {
			t.Fatalf("accepted bandwidth %v spin chunk %v", bw, m.SpinChunk)
		}
		for _, f := range m.Faults {
			if f.At <= 0 || f.Extra < 0 || f.Window < 0 || f.Count < 0 {
				t.Fatalf("accepted out-of-range fault %+v", f)
			}
			if !validTarget(f.Kind, f.Target, m.Nodes) {
				t.Fatalf("accepted %s target %q on %d nodes", f.Kind, f.Target, m.Nodes)
			}
		}
		if _, err := hafnium.ParseManifest(m.NodePlan); err != nil {
			t.Fatalf("accepted a node plan hafnium rejects: %v", err)
		}
	})
}

// validTarget is the ManifestFault doc's target table, written out
// independently of the parser: the dynamic names each kind accepts, or
// a canonical node<N> with N below the node count.
func validTarget(kind, target string, nodes int) bool {
	dynamic := map[string][]string{
		"crash":     {"leader", "follower"},
		"partition": {"leader", "follower"},
		"heal":      {"partitioned"},
	}
	for _, name := range dynamic[kind] {
		if target == name {
			return true
		}
	}
	digits, ok := strings.CutPrefix(target, "node")
	n, err := strconv.Atoi(digits)
	return ok && err == nil && strconv.Itoa(n) == digits && n >= 0 && n < nodes
}
