package metrics

import (
	"bytes"
	"testing"
)

// populate registers a mix of series in scrambled key order and gives
// them non-zero values.
func populate(r *Registry) (*Counter, *Gauge, *Histogram) {
	c := r.Counter(K("el2", "traps").WithVM("job"))
	r.Counter(K("kernel", "ticks").WithCore(1)).Add(7)
	g := r.Gauge(K("tlb", "hits").WithCore(0))
	h := r.Histogram(K("shmring", "push_bytes"), 0, 100, 4)
	r.Counter(K("alpha", "first")).Inc()
	c.Add(3)
	g.Set(2.5)
	for _, v := range []float64{-1, 10, 60, 99, 200} {
		h.Observe(v)
	}
	return c, g, h
}

// TestCheckpointRestoreRewinds: a restore rewinds every value, zeroes
// series registered after the checkpoint, keeps cached instrument
// pointers live, and renders the same text as a registry that never
// diverged.
func TestCheckpointRestoreRewinds(t *testing.T) {
	r := NewRegistryCap(8)
	c, g, h := populate(r)
	cp := r.Checkpoint()

	// Diverge: bump every series, register new ones of each kind, and
	// overflow the cap so the dropped-series count moves too.
	c.Add(100)
	g.Set(-4)
	h.Observe(50)
	late := r.Counter(K("late", "counter"))
	late.Add(9)
	lateG := r.Gauge(K("late", "gauge"))
	lateG.Set(1)
	lateH := r.Histogram(K("late", "hist"), 0, 10, 2)
	lateH.Observe(3)
	r.Counter(K("over", "cap")).Inc()
	if r.Dropped() == 0 {
		t.Fatal("test setup: cap never overflowed")
	}

	r.Restore(cp)

	if c.Value() != 3 || g.Value() != 2.5 || h.Total() != 5 {
		t.Fatalf("values not rewound: counter %d gauge %g hist n=%d", c.Value(), g.Value(), h.Total())
	}
	if late.Value() != 0 || lateG.Value() != 0 || lateH.Total() != 0 || lateH.Buckets()[1] != 0 {
		t.Fatal("series registered after the checkpoint were not zeroed")
	}
	if r.Counter(K("el2", "traps").WithVM("job")) != c || r.Histogram(K("late", "hist"), 0, 1, 1) != lateH {
		t.Fatal("restore replaced a cached instrument")
	}

	// The late series are still registered (at zero), so compare against
	// a save-time text that carries them too.
	fresh := NewRegistryCap(8)
	populate(fresh)
	fresh.Counter(K("late", "counter"))
	fresh.Gauge(K("late", "gauge"))
	fresh.Histogram(K("late", "hist"), 0, 10, 2)
	var got, wantLate bytes.Buffer
	r.Snapshot().WriteText(&got)
	fresh.Snapshot().WriteText(&wantLate)
	if !bytes.Equal(got.Bytes(), wantLate.Bytes()) {
		t.Fatalf("restored text differs:\n%s\nwant:\n%s", got.String(), wantLate.String())
	}

	late.Inc()
	if v, _ := r.Snapshot().Counter(K("late", "counter")); v != 1 {
		t.Fatalf("cached counter detached from the registry: snapshot reads %d", v)
	}
}

// TestCheckpointRestoreTextIdentical: with no series registered after
// the checkpoint, the text after a restore is byte-identical to the
// text taken at save time.
func TestCheckpointRestoreTextIdentical(t *testing.T) {
	r := NewRegistry()
	c, g, h := populate(r)
	cp := r.Checkpoint()
	want := r.Snapshot().Text()
	for i := 0; i < 3; i++ {
		c.Add(11)
		g.Set(float64(i))
		h.Observe(float64(30 * i))
		r.Restore(cp)
		if got := r.Snapshot().Text(); got != want {
			t.Fatalf("restore %d: text differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestCheckpointRestoreAllocatesNothing pins the fork hot path: a
// restore writes values in place.
func TestCheckpointRestoreAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c, _, h := populate(r)
	cp := r.Checkpoint()
	r.Counter(K("late", "counter")).Inc()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1)
		r.Restore(cp)
	})
	if allocs != 0 {
		t.Fatalf("Restore allocates %.1f times per call", allocs)
	}
}

// TestCheckpointForeignRegistryPanics: a checkpoint only fits the
// registry it was taken from.
func TestCheckpointForeignRegistryPanics(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	populate(a)
	populate(b)
	cp := a.Checkpoint()
	defer func() {
		if recover() == nil {
			t.Fatal("restoring another registry's checkpoint did not panic")
		}
	}()
	b.Restore(cp)
}
