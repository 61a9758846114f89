package core

import (
	"testing"

	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/sim"
)

// snapshotManifest is the snapshot experiments' partition plan (the
// harness and benchjson use the same one): the benchmark node with a
// warm watchdog restart policy on the job VM.
const snapshotManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 512
working_set_pages = 256
restart_policy = restart
max_restarts = 8
restart_backoff_us = 500
restart_from_snapshot = true
`

// BenchmarkSecureNodeFork measures the fork/restore layer: one
// whole-node Fork of a warm snapshot of the Kitten-primary stack. Each
// iteration then runs the forked timeline for 100 µs of simulated time,
// untimed, so the next fork has real divergence to rewind.
func BenchmarkSecureNodeFork(b *testing.B) {
	n, err := NewSecureNode(Options{Seed: 7, Manifest: snapshotManifest, Scheduler: SchedulerKitten})
	if err != nil {
		b.Fatal(err)
	}
	spin := noise.NewSelfish("fork", sim.FromSeconds(30))
	spin.ChunkTime = sim.FromMicros(50)
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, spin)
	if err := n.AttachGuest("job", guest); err != nil {
		b.Fatal(err)
	}
	n.Machine.RegisterSnapshotter("proc."+spin.Name(), spin)
	if err := n.Boot(); err != nil {
		b.Fatal(err)
	}
	n.Run(5 * sim.Millisecond)
	snap := n.Machine.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Machine.Fork(snap)
		b.StopTimer()
		n.Run(100 * sim.Microsecond)
		b.StartTimer()
	}
}
