package mmu

import (
	"math/rand"
	"slices"
	"testing"

	"khsim/internal/sim"
)

// tlbCopy is a deep copy of everything TLB.Restore must reinstall.
type tlbCopy struct {
	data  []tlbEntry
	clock uint64
	stats TLBStats
	live  int
}

func copyTLB(t *TLB) tlbCopy {
	return tlbCopy{data: slices.Clone(t.data), clock: t.clock, stats: t.stats, live: t.live}
}

func scanLive(t *TLB) int {
	n := 0
	for _, e := range t.data {
		if e.valid {
			n++
		}
	}
	return n
}

// TestTLBRestoreMatchesDeepCopy interleaves random lookups, fills and
// invalidations with snapshots and restores of two different
// snapshots, including restoring the same state twice in a row and
// snapshotting right after a restore. After every Restore the TLB must
// equal a deep copy taken when the snapshot was made: every set, the
// LRU clock, the counters and the live count. The dirty-set fast path
// (restoring the base state) and the full copy (any other state) are
// both exercised.
func TestTLBRestoreMatchesDeepCopy(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tlb, err := NewTLB(512, 2) // 256 sets: a four-word dirty bitset
		if err != nil {
			t.Fatal(err)
		}
		var snaps [2]struct {
			st  sim.State
			ref tlbCopy
		}
		take := func(i int) {
			snaps[i].st = tlb.Snapshot()
			snaps[i].ref = copyTLB(tlb)
		}
		restore := func(step, i int) {
			tlb.Restore(snaps[i].st)
			got, want := copyTLB(tlb), snaps[i].ref
			if !slices.Equal(got.data, want.data) {
				t.Fatalf("seed %d step %d: sets differ from snapshot %d after Restore", seed, step, i)
			}
			if got.clock != want.clock || got.stats != want.stats || got.live != want.live {
				t.Fatalf("seed %d step %d: restored clock/stats/live = %d/%+v/%d, want %d/%+v/%d",
					seed, step, got.clock, got.stats, got.live, want.clock, want.stats, want.live)
			}
		}
		take(0)
		take(1)
		for step := 0; step < 3000; step++ {
			tag := TLBTag{ASID: uint16(rng.Intn(2)), VMID: uint16(rng.Intn(3))}
			addr := uint64(rng.Intn(1024)) * GranuleSize
			switch op := rng.Intn(100); {
			case op < 35:
				tlb.Lookup(tag, addr)
			case op < 70:
				tlb.Insert(tag, addr, uint64(rng.Intn(1<<20))*GranuleSize, Perms(rng.Intn(8)))
			case op < 78:
				tlb.InvalidateVA(tag, addr)
			case op < 81:
				tlb.InvalidateVMID(tag.VMID)
			case op < 84:
				tlb.InvalidateASID(tag)
			case op < 85:
				tlb.InvalidateAll()
			case op < 89:
				take(rng.Intn(2))
			case op < 93:
				restore(step, rng.Intn(2))
			case op < 96:
				i := rng.Intn(2)
				restore(step, i)
				restore(step, i) // same state twice: dirty set is empty
			default:
				restore(step, rng.Intn(2))
				take(rng.Intn(2)) // snapshot right after a restore
			}
			if live := scanLive(tlb); tlb.LiveEntries(nil) != live {
				t.Fatalf("seed %d step %d: live count %d, scan finds %d", seed, step, tlb.LiveEntries(nil), live)
			}
		}
	}
}

// TestTLBEmptyInvalidationCounts pins the O(1) empty-TLB path: whole-TLB
// invalidations of an empty TLB still count as invalidation operations.
func TestTLBEmptyInvalidationCounts(t *testing.T) {
	tlb := NewA53TLB()
	if tlb.InvalidateAll() != 0 || tlb.InvalidateVMID(3) != 0 || tlb.InvalidateASID(TLBTag{VMID: 3}) != 0 {
		t.Fatal("empty TLB reported dropped entries")
	}
	if got := tlb.Stats().Invalidations; got != 3 {
		t.Fatalf("Invalidations = %d, want 3", got)
	}
}

// TestWalkCacheFlushThenTranslateMisses: after Flush (an epoch bump) the
// next Translate of a cached page must walk the table again.
func TestWalkCacheFlushThenTranslateMisses(t *testing.T) {
	tab := NewTable("s2")
	if err := tab.Map(0, 0x9000_0000, 8*GranuleSize, PermRW); err != nil {
		t.Fatal(err)
	}
	wc := NewWalkCache(tab, 8)
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 8; p++ {
			wc.Translate(p * GranuleSize)
		}
		_, m0 := wc.Stats()
		wc.Translate(3 * GranuleSize)
		if _, m := wc.Stats(); m != m0 {
			t.Fatalf("round %d: warm page missed", round)
		}
		wc.Flush()
		out, _, _, ok := wc.Translate(3 * GranuleSize)
		if _, m := wc.Stats(); m != m0+1 {
			t.Fatalf("round %d: Translate after Flush hit the cache", round)
		}
		if !ok || out != 0x9000_0000+3*GranuleSize {
			t.Fatalf("round %d: post-flush translate wrong: (%#x,%v)", round, out, ok)
		}
	}
}
