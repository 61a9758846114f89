package net

import (
	"fmt"
	"testing"

	"khsim/internal/sim"
)

// These tests pin the fabric half of the snapshot contract (DESIGN.md
// §11): a message in flight is a "net.deliver" event on the destination
// engine, so restoring the engines plus the fabric must re-deliver the
// in-flight set at identical times, in identical order, with identical
// link-cursor state — and fault state (partitions) must rewind with it.

// snapRig is the recording rig plus snapshot plumbing: engines and the
// fabric restore together, and the delivery log rewinds with them.
type snapRig struct {
	*rig
	deliveries [][]string // per node: "t=<time> seq=<n> kind" lines
}

func newSnapRig(t *testing.T, n int) *snapRig {
	t.Helper()
	link := LinkConfig{Latency: sim.FromMicros(50), Bandwidth: 1e8}
	f, err := NewFabric(n, link)
	if err != nil {
		t.Fatal(err)
	}
	r := &snapRig{rig: &rig{f: f, got: make([][]Message, n)}, deliveries: make([][]string, n)}
	for i := 0; i < n; i++ {
		eng := sim.NewEngine(uint64(i) + 1)
		r.engines = append(r.engines, eng)
		if err := f.Attach(NodeID(i), eng); err != nil {
			t.Fatal(err)
		}
		id := i
		if err := f.Bind(NodeID(i), func(m Message) {
			r.got[id] = append(r.got[id], m)
			r.deliveries[id] = append(r.deliveries[id],
				fmt.Sprintf("t=%v seq=%d %s", r.engines[id].Now(), m.Seq, m.Kind))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// snapshot captures every engine, the fabric, and the delivery log.
func (r *snapRig) snapshot() (engines []sim.State, fabric sim.State, logs [][]string) {
	for _, e := range r.engines {
		engines = append(engines, e.Snapshot())
	}
	logs = make([][]string, len(r.deliveries))
	for i, d := range r.deliveries {
		logs[i] = append([]string(nil), d...)
	}
	return engines, r.f.Snapshot(), logs
}

// restore rewinds the rig to a snapshot: engines first (revalidating the
// in-flight net.deliver events), then the fabric, then the log.
func (r *snapRig) restore(engines []sim.State, fabric sim.State, logs [][]string) {
	for i, e := range r.engines {
		e.Restore(engines[i])
	}
	r.f.Restore(fabric)
	for i := range r.deliveries {
		r.deliveries[i] = append(r.deliveries[i][:0], logs[i]...)
		r.got[i] = r.got[i][:0]
	}
}

// render flattens the delivery log for byte comparison.
func (r *snapRig) render() string {
	var out string
	for i, d := range r.deliveries {
		out += fmt.Sprintf("node%d:\n", i)
		for _, line := range d {
			out += "  " + line + "\n"
		}
	}
	return out
}

// TestSnapshotRedeliversInFlight sends a burst across three nodes, steps
// until some messages have landed and others are still in flight,
// snapshots, drains to completion twice — once uninterrupted, once after
// a restore — and requires the two delivery logs to be byte-identical:
// same messages, same order, same simulated delivery instants.
func TestSnapshotRedeliversInFlight(t *testing.T) {
	r := newSnapRig(t, 3)
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		for k := 0; k < 4; k++ {
			r.f.Send(0, 1, fmt.Sprintf("to1-%d", k), nil, 200*(k+1))
			r.f.Send(0, 2, fmt.Sprintf("to2-%d", k), nil, 300*(k+1))
		}
	})
	r.engines[1].ScheduleNamed(sim.Time(0).Add(sim.FromMicros(10)), "send", func() {
		r.f.Send(1, 2, "cross", nil, 128)
	})

	// Step partway: some deliveries fired, the rest still pending.
	for i := 0; i < 5; i++ {
		r.runStep()
	}
	delivered := len(r.deliveries[1]) + len(r.deliveries[2])
	pending := 0
	for _, e := range r.engines {
		pending += e.Pending()
	}
	if delivered == 0 || pending == 0 {
		t.Fatalf("bad snapshot point: %d delivered, %d pending (want both nonzero)", delivered, pending)
	}

	engs, fab, logs := r.snapshot()
	r.runAll()
	want := r.render()
	if stats := r.f.Stats(); stats.Delivered != 9 {
		t.Fatalf("delivered %d messages, want 9", stats.Delivered)
	}

	r.restore(engs, fab, logs)
	r.runAll()
	if got := r.render(); got != want {
		t.Fatalf("restored timeline delivered differently\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if stats := r.f.Stats(); stats.Delivered != 9 {
		t.Fatalf("restored run delivered %d messages, want 9", stats.Delivered)
	}
}

// TestSnapshotPartitionHeal forks the mid-flight snapshot down a faulted
// timeline: partitioning a destination right after the restore must drop
// exactly the in-flight messages the clean timeline delivered, healing
// must reconnect, and a second restore must rewind the partition flag
// and the drop counters along with the message set.
func TestSnapshotPartitionHeal(t *testing.T) {
	r := newSnapRig(t, 2)
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		for k := 0; k < 3; k++ {
			r.f.Send(0, 1, fmt.Sprintf("m%d", k), nil, 256)
		}
	})
	// One engine step: the sends are queued, deliveries are in flight.
	r.runStep()
	if p := r.engines[1].Pending(); p != 3 {
		t.Fatalf("%d in-flight deliveries, want 3", p)
	}
	engs, fab, logs := r.snapshot()

	// Clean timeline: everything lands.
	r.runAll()
	if got := len(r.deliveries[1]); got != 3 {
		t.Fatalf("clean timeline delivered %d, want 3", got)
	}

	// Faulted timeline: partition node 1 while the same messages are in
	// flight again — they must all drop, then a post-heal send lands.
	r.restore(engs, fab, logs)
	if err := r.f.Partition(1); err != nil {
		t.Fatal(err)
	}
	r.runAll()
	if got := len(r.deliveries[1]); got != 0 {
		t.Fatalf("partitioned timeline delivered %d, want 0", got)
	}
	if d := r.f.Stats().DroppedPartitionInFlight; d != 3 {
		t.Fatalf("dropped %d on partition, want 3", d)
	}
	if err := r.f.Heal(1); err != nil {
		t.Fatal(err)
	}
	r.engines[0].ScheduleNamed(r.engines[0].Now().Add(sim.FromMicros(1)), "send", func() {
		r.f.Send(0, 1, "after-heal", nil, 64)
	})
	r.runAll()
	if got := len(r.deliveries[1]); got != 1 || r.deliveries[1][0][len(r.deliveries[1][0])-10:] != "after-heal" {
		t.Fatalf("post-heal delivery log wrong: %v", r.deliveries[1])
	}

	// Third timeline: the restore must rewind the partition flag and the
	// fault counters, so the clean outcome replays.
	r.restore(engs, fab, logs)
	if r.f.Partitioned(1) {
		t.Fatal("restore left node 1 partitioned")
	}
	if d := r.f.Stats().Dropped(); d != 0 {
		t.Fatalf("restore left %d drops counted, want 0", d)
	}
	r.runAll()
	if got := len(r.deliveries[1]); got != 3 {
		t.Fatalf("replayed timeline delivered %d, want 3", got)
	}
}

// runStep advances whichever engine holds the globally earliest event by
// one event (the cluster multiplexer's rule).
func (r *snapRig) runStep() {
	best, bt := -1, sim.Time(0)
	for i, e := range r.engines {
		if t, ok := e.NextAt(); ok && (best < 0 || t < bt) {
			best, bt = i, t
		}
	}
	if best >= 0 {
		r.engines[best].Step()
	}
}

func TestStatsCountsDeliveries(t *testing.T) {
	r := newRig(t, 3, DefaultLink())
	// Deliveries land on different destinations; Stats counts them all.
	r.engines[0].ScheduleNamed(sim.Time(0), "send", func() {
		_ = r.f.Send(0, 1, "x", nil, 64)
		_ = r.f.Send(0, 2, "y", nil, 64)
	})
	r.engines[1].ScheduleNamed(sim.Time(0), "send", func() {
		_ = r.f.Send(1, 2, "z", nil, 64)
	})
	r.runAll()
	s := r.f.Stats()
	if s.Delivered != 3 || s.Sent != 3 {
		t.Fatalf("Stats = %+v, want Sent 3 / Delivered 3", s)
	}
}

// TestSnapshotRestoresDeliveryCounts pins the delivery-side counters —
// Delivered and DroppedPartitionInFlight, both counted when the delivery
// event fires on the destination — across Snapshot/Restore: a restore
// rewinds them to the snapshot-time values, and counting resumes from
// there.
func TestSnapshotRestoresDeliveryCounts(t *testing.T) {
	r := newRig(t, 2, DefaultLink())
	ping := func(at sim.Time) {
		r.engines[0].ScheduleNamed(at, "send", func() { _ = r.f.Send(0, 1, "p", nil, 64) })
	}
	// One delivery, then one message lost to a mid-flight partition.
	ping(sim.Time(0))
	r.runAll()
	r.engines[0].ScheduleNamed(r.engines[0].Now().Add(sim.FromMicros(1)), "doomed", func() {
		_ = r.f.Send(0, 1, "doomed", nil, 64)
		_ = r.f.Partition(1)
	})
	r.runAll()
	_ = r.f.Heal(1)
	want := Stats{Sent: 2, Delivered: 1, DroppedPartitionInFlight: 1}
	if got := r.f.Stats(); got != want {
		t.Fatalf("Stats = %+v before snapshot, want %+v", got, want)
	}
	snap := r.f.Snapshot()

	ping(r.engines[0].Now().Add(sim.FromMicros(1)))
	r.runAll()
	r.engines[0].ScheduleNamed(r.engines[0].Now().Add(sim.FromMicros(1)), "doomed", func() {
		_ = r.f.Send(0, 1, "doomed", nil, 64)
		_ = r.f.Partition(1)
	})
	r.runAll()
	if got := r.f.Stats(); got.Delivered != 2 || got.DroppedPartitionInFlight != 2 {
		t.Fatalf("Stats = %+v after second round, want 2 delivered / 2 in-flight drops", got)
	}

	r.f.Restore(snap)
	if got := r.f.Stats(); got != want {
		t.Fatalf("Stats = %+v after Restore, want the snapshot-time %+v", got, want)
	}
	if r.f.Partitioned(1) {
		t.Fatal("Restore kept the post-snapshot partition")
	}
	// Counting resumes from the restored baseline.
	ping(r.engines[0].Now().Add(sim.FromMicros(1)))
	r.runAll()
	if got := r.f.Stats(); got.Delivered != 2 || got.DroppedPartitionInFlight != 1 {
		t.Fatalf("Stats = %+v after post-Restore send, want 2 delivered / 1 in-flight drop", got)
	}
}
