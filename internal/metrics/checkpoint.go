package metrics

import (
	"fmt"
	"math"
)

// Checkpoint is a registry's values at one instant, for node-level
// snapshot/fork (DESIGN.md §11). It records every instrument's value in
// registration order as one flat slice — counters, then gauge bits,
// then each histogram's under/over/observed and buckets — so a restore
// walks the instrument lists without hashing a key. It is not an output
// format: the sorted, keyed Snapshot is.
type Checkpoint struct {
	reg                     *Registry
	vals                    []uint64
	counters, gauges, hists int
	dropped                 uint64
}

// Checkpoint records the values of every registered series.
func (r *Registry) Checkpoint() Checkpoint {
	n := len(r.counterList) + len(r.gaugeList)
	for _, h := range r.histList {
		n += 3 + len(h.buckets)
	}
	vals := make([]uint64, 0, n)
	for _, c := range r.counterList {
		vals = append(vals, c.v)
	}
	for _, g := range r.gaugeList {
		vals = append(vals, math.Float64bits(g.v))
	}
	for _, h := range r.histList {
		vals = append(vals, h.under, h.over, h.observed)
		vals = append(vals, h.buckets...)
	}
	return Checkpoint{
		reg: r, vals: vals, dropped: r.dropped,
		counters: len(r.counterList), gauges: len(r.gaugeList), hists: len(r.histList),
	}
}

// Restore rewinds the registry to a checkpoint taken from it, without
// allocating.
//
// Instruments are never recreated: callers cache *Counter/*Gauge/
// *Histogram pointers at construction, so Restore writes the recorded
// values back into the live instruments in place. Series registered
// after the checkpoint are zeroed rather than deleted — their cached
// pointers stay valid and simply read as never-touched, which is exactly
// the state a fresh run would see at the checkpoint instant. The shared
// sink instruments are left alone: their values are never published, so
// they cannot affect snapshot byte-identity.
func (r *Registry) Restore(cp Checkpoint) {
	if cp.reg != r {
		panic(fmt.Sprintf("metrics: Registry.Restore of a checkpoint from another registry (%p)", cp.reg))
	}
	v := cp.vals
	for i, c := range r.counterList {
		c.v = 0
		if i < cp.counters {
			c.v, v = v[0], v[1:]
		}
	}
	for i, g := range r.gaugeList {
		g.v = 0
		if i < cp.gauges {
			g.v, v = math.Float64frombits(v[0]), v[1:]
		}
	}
	for i, h := range r.histList {
		if i < cp.hists {
			h.under, h.over, h.observed = v[0], v[1], v[2]
			v = v[3+copy(h.buckets, v[3:]):]
			continue
		}
		clear(h.buckets)
		h.under, h.over, h.observed = 0, 0, 0
	}
	r.dropped = cp.dropped
}
