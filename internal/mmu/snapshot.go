package mmu

import (
	"fmt"
	"math/bits"

	"khsim/internal/sim"
)

// tableState is Table's Snapshot payload: the root of a frozen
// copy-on-write tree plus the scalar accounting.
type tableState struct {
	root   *node
	nodes  int
	mapped uint64
}

// Snapshot captures the table in O(1): the root node is frozen and
// shared, and any later mutation through the live table copies only the
// nodes on its walk path (copy-on-write), so a fork costs O(dirty table
// pages), not O(mapped pages). Table implements sim.Snapshotter.
func (t *Table) Snapshot() sim.State {
	t.root.frozen = true
	return &tableState{root: t.root, nodes: t.nodes, mapped: t.mapped}
}

// Restore points the table back at a snapshot's frozen tree. The
// mutation generation is NOT rolled back: it advances past both the
// current and any previously observed value, so a WalkCache (or any
// other generation-tagged memo) can never see a stale translation — a
// rolled-back generation could numerically collide with one the cache
// recorded on the abandoned timeline (the ABA bug the regression test in
// walkcache_restore_test.go pins down).
func (t *Table) Restore(st sim.State) {
	s, ok := st.(*tableState)
	if !ok {
		panic(fmt.Sprintf("mmu: Table.Restore of foreign state %T", st))
	}
	s.root.frozen = true // the snapshot keeps ownership; divergence copies
	t.root = s.root
	t.nodes = s.nodes
	t.mapped = s.mapped
	t.gen++
}

// walkCacheState is WalkCache's Snapshot payload: only the hit/miss
// counters — cached translations are a memo, never state, and a restore
// must drop them (they may describe the abandoned timeline's mappings).
type walkCacheState struct {
	hits, misses uint64
}

// Snapshot captures the cache counters. WalkCache implements
// sim.Snapshotter so hypervisor snapshots can compose it directly.
func (w *WalkCache) Snapshot() sim.State {
	return &walkCacheState{hits: w.hits, misses: w.misses}
}

// Restore invalidates every cached translation (an O(1) epoch bump) and
// restores the counters. The flush is mandatory even though the
// generation check would usually catch staleness: restore is exactly the
// path where generation numbers from two timelines could otherwise
// collide.
func (w *WalkCache) Restore(st sim.State) {
	s, ok := st.(*walkCacheState)
	if !ok {
		panic(fmt.Sprintf("mmu: WalkCache.Restore of foreign state %T", st))
	}
	w.Flush()
	w.gen = w.tab.Gen()
	w.hits = s.hits
	w.misses = s.misses
}

// tlbState is TLB's Snapshot payload: a copy of every entry. It is
// never written after Snapshot builds it.
type tlbState struct {
	data  []tlbEntry
	clock uint64
	stats TLBStats
	live  int
}

// Snapshot copies the TLB contents, LRU clock and counters, and makes
// the copy the TLB's base state: from here on the TLB tracks which sets
// it writes. TLB implements sim.Snapshotter.
func (t *TLB) Snapshot() sim.State {
	s := &tlbState{data: append([]tlbEntry(nil), t.data...), clock: t.clock, stats: t.stats, live: t.live}
	t.base = s
	clear(t.dirty)
	return s
}

// Restore reinstalls a TLB snapshot. Restoring the base state (the one
// the last Snapshot or Restore installed) copies back only the sets
// written since, so repeated forks of one snapshot cost O(dirtied sets);
// any other state is copied in full and becomes the new base.
func (t *TLB) Restore(st sim.State) {
	s, ok := st.(*tlbState)
	if !ok {
		panic(fmt.Sprintf("mmu: TLB.Restore of foreign state %T", st))
	}
	if s == t.base {
		for w, word := range t.dirty {
			for ; word != 0; word &= word - 1 {
				set := w<<6 | bits.TrailingZeros64(word)
				copy(t.entries(set), s.data[set*t.ways:(set+1)*t.ways])
			}
		}
	} else {
		copy(t.data, s.data)
		t.base = s
	}
	clear(t.dirty)
	t.clock = s.clock
	t.stats = s.stats
	t.live = s.live
}
