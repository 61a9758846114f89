package harness

import (
	"strings"
	"testing"

	"khsim/internal/cluster"
)

// TestClusterSameSeedIdentity is the cluster determinism contract: two
// runs of the same seed produce byte-identical artifacts and both hold
// the failover properties — at the shipped 3-node size, at the 8-node
// failover scale, and with the dense chunked spin that keeps every node
// busy.
func TestClusterSameSeedIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		dense bool
	}{
		{"3node", 3, false},
		{"8node", 8, false},
		{"8node-dense", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text := ClusterManifestText
			if tc.dense {
				text = strings.Replace(text, "run_ms = 400", "run_ms = 400\nspin_chunk_us = 40", 1)
			}
			m, err := cluster.ParseManifest(text)
			if err != nil {
				t.Fatal(err)
			}
			m.Nodes = tc.nodes
			a, err := RunClusterManifest(m, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Check(); err != nil {
				t.Fatalf("run failed invariants: %v", err)
			}
			b, err := RunClusterManifest(m, 42)
			if err != nil {
				t.Fatal(err)
			}
			if a.EventsFired != b.EventsFired {
				t.Fatalf("event counts diverge: %d then %d", a.EventsFired, b.EventsFired)
			}
			if a.Artifact() != b.Artifact() {
				t.Fatalf("artifacts diverge across same-seed runs (%d events)", a.EventsFired)
			}
		})
	}
}

// TestMigrationSuiteSameSeedIdentity runs the live-migration suite twice
// at seed 42 and requires byte-identical artifacts that hold the suite's
// invariants. Seed 42's kill cell signs its migrate-abort record while
// node 0 is mid-election; the record must still reach the replicated
// ledger.
func TestMigrationSuiteSameSeedIdentity(t *testing.T) {
	a, err := RunMigrationSuite(42)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(); err != nil {
		t.Fatalf("migration suite failed invariants: %v", err)
	}
	b, err := RunMigrationSuite(42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact() != b.Artifact() {
		t.Fatal("migration suite artifacts diverge across same-seed runs")
	}
}
