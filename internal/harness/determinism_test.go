package harness

import (
	"strings"
	"testing"
)

// TestExperimentSameSeedIdentity is the determinism contract of every
// registered experiment: two runs of seed 42 both pass Check() and
// render byte-identical artifacts with equal event counts. The extra
// cluster-8-dense case chunks every replica's spin so each node stays
// busy — the stress case for the cluster multiplexer. Seed 42's
// migration kill cell signs its migrate-abort record while node 0 is
// mid-election; the record must still reach the replicated ledger.
func TestExperimentSameSeedIdentity(t *testing.T) {
	exps := append([]Experiment(nil), Experiments...)
	dense, _ := Lookup("cluster-8")
	dense.Name = "cluster-8-dense"
	dense.Manifest = strings.Replace(dense.Manifest, "run_ms = 400", "run_ms = 400\nspin_chunk_us = 40", 1)
	exps = append(exps, dense)
	for _, e := range exps {
		t.Run(e.Name, func(t *testing.T) {
			a, err := e.Run(42)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Check(); err != nil {
				t.Fatalf("run failed invariants: %v", err)
			}
			b, err := e.Run(42)
			if err != nil {
				t.Fatal(err)
			}
			if a.Events() != b.Events() {
				t.Fatalf("event counts diverge: %d then %d", a.Events(), b.Events())
			}
			if a.Artifact() != b.Artifact() {
				t.Fatalf("artifacts diverge across same-seed runs (%d events)", a.Events())
			}
		})
	}
}

// TestCluster8Manifest: cluster-8 is the built-in scenario with its
// node count rewritten, so a reworded nodes line must not silently
// leave it at 3 nodes.
func TestCluster8Manifest(t *testing.T) {
	e, _ := Lookup("cluster-8")
	if !strings.Contains(e.Manifest, "\nnodes = 8\n") {
		t.Fatal("cluster-8 manifest does not set 8 nodes")
	}
}
