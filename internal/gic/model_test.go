package gic

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGIC is the distributor's former map-and-sort implementation, kept
// as a reference model: per-IRQ state created on first touch with
// priority 0xA0, per-core pending/active sets as maps, and Acknowledge
// sorting the pending IDs so the lowest ID wins priority ties.
type refGIC struct {
	cores, spis int
	state       map[int]*irqState
	pending     []map[int]bool
	active      []map[int]bool
	maskPrio    []uint8
	sink        *recorder
	stats       Stats
}

func newRef(cores, spis int) *refGIC {
	m := &refGIC{cores: cores, spis: spis, state: map[int]*irqState{}, sink: &recorder{}}
	for i := 0; i < cores; i++ {
		m.pending = append(m.pending, map[int]bool{})
		m.active = append(m.active, map[int]bool{})
		m.maskPrio = append(m.maskPrio, 0xFF)
	}
	return m
}

func (m *refGIC) validIRQ(irq int) bool   { return irq >= 0 && irq < FirstSPI+m.spis }
func (m *refGIC) validCore(core int) bool { return core >= 0 && core < m.cores }

func (m *refGIC) irq(irq int) *irqState {
	s, ok := m.state[irq]
	if !ok {
		s = &irqState{priority: 0xA0}
		m.state[irq] = s
	}
	return s
}

func (m *refGIC) setEnabled(irq int, on bool) bool {
	if !m.validIRQ(irq) {
		return false
	}
	m.irq(irq).enabled = on
	return true
}

func (m *refGIC) enabled(irq int) bool {
	s, ok := m.state[irq]
	return ok && s.enabled
}

func (m *refGIC) setPriority(irq int, prio uint8) bool {
	if !m.validIRQ(irq) {
		return false
	}
	m.irq(irq).priority = prio
	return true
}

func (m *refGIC) route(irq, core int) bool {
	if !m.validIRQ(irq) || ClassOf(irq) != SPI || !m.validCore(core) {
		return false
	}
	m.irq(irq).target = uint16(core)
	return true
}

func (m *refGIC) raiseSPI(irq int) bool {
	if !m.validIRQ(irq) || ClassOf(irq) != SPI {
		return false
	}
	m.raiseOn(irq, int(m.irq(irq).target))
	return true
}

func (m *refGIC) raisePPI(core, irq int) bool {
	if !m.validIRQ(irq) || ClassOf(irq) != PPI || !m.validCore(core) {
		return false
	}
	m.raiseOn(irq, core)
	return true
}

func (m *refGIC) sendSGI(core, irq int) bool {
	if irq < 0 || irq >= NumSGI || !m.validCore(core) {
		return false
	}
	m.raiseOn(irq, core)
	return true
}

func (m *refGIC) raiseOn(irq, core int) {
	s := m.irq(irq)
	if !s.enabled {
		m.stats.Dropped++
		return
	}
	m.stats.Raised++
	if m.pending[core][irq] || m.active[core][irq] {
		return
	}
	m.pending[core][irq] = true
	if s.priority < m.maskPrio[core] {
		m.sink.AssertIRQ(core)
	}
}

func (m *refGIC) setPriorityMask(core int, mask uint8) bool {
	if !m.validCore(core) {
		return false
	}
	m.maskPrio[core] = mask
	if m.hasPending(core) {
		m.sink.AssertIRQ(core)
	}
	return true
}

func (m *refGIC) hasPending(core int) bool {
	for irq := range m.pending[core] {
		if s := m.irq(irq); s.enabled && s.priority < m.maskPrio[core] {
			return true
		}
	}
	return false
}

func (m *refGIC) acknowledge(core int) int {
	var ids []int
	for irq := range m.pending[core] {
		ids = append(ids, irq)
	}
	sort.Ints(ids)
	best, bestPrio := SpuriousIRQ, uint8(0xFF)
	for _, irq := range ids {
		s := m.irq(irq)
		if !s.enabled || s.priority >= m.maskPrio[core] {
			continue
		}
		if best == SpuriousIRQ || s.priority < bestPrio {
			best, bestPrio = irq, s.priority
		}
	}
	if best == SpuriousIRQ {
		m.stats.Spurious++
		return SpuriousIRQ
	}
	delete(m.pending[core], best)
	m.active[core][best] = true
	m.stats.Acked++
	return best
}

func (m *refGIC) eoi(core, irq int) bool {
	if !m.validCore(core) || !m.active[core][irq] {
		return false
	}
	delete(m.active[core], irq)
	if m.hasPending(core) {
		m.sink.AssertIRQ(core)
	}
	return true
}

// clone deep-copies the model's state (its snapshot); the sink is shared.
func (m *refGIC) clone() *refGIC {
	c := newRef(m.cores, m.spis)
	for irq, s := range m.state {
		cp := *s
		c.state[irq] = &cp
	}
	for i := range m.pending {
		for irq := range m.pending[i] {
			c.pending[i][irq] = true
		}
		for irq := range m.active[i] {
			c.active[i][irq] = true
		}
	}
	copy(c.maskPrio, m.maskPrio)
	c.sink, c.stats = m.sink, m.stats
	return c
}

// TestDistributorMatchesReferenceModel drives the bitset distributor and
// the map-and-sort model with the same random calls — including
// out-of-range IRQs and cores, and snapshots and restores — and requires
// identical results: every call's success, every acknowledged ID,
// PendingCount and HasPending on every core, Enabled for every ID, the
// counters, and the sequence of sink assertions.
func TestDistributorMatchesReferenceModel(t *testing.T) {
	const cores, spis = 3, 100 // 132 IRQ IDs: three bitmap words per core
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, m := New(cores, spis), newRef(cores, spis)
		sink := &recorder{}
		d.SetSink(sink)
		var dSnaps []any
		var mSnaps []*refGIC
		irq := func() int { return rng.Intn(FirstSPI+spis+4) - 2 }
		core := func() int { return rng.Intn(cores+2) - 1 }
		for step := 0; step < 4000; step++ {
			var got, want any
			switch op := rng.Intn(100); {
			case op < 10:
				i := irq()
				got, want = d.Enable(i) == nil, m.setEnabled(i, true)
			case op < 13:
				i := irq()
				got, want = d.Disable(i) == nil, m.setEnabled(i, false)
			case op < 20:
				i, p := irq(), uint8(rng.Intn(0x100))
				got, want = d.SetPriority(i, p) == nil, m.setPriority(i, p)
			case op < 25:
				i, c := irq(), core()
				got, want = d.Route(i, c) == nil, m.route(i, c)
			case op < 40:
				i := FirstSPI + rng.Intn(spis+2) - 1
				got, want = d.RaiseSPI(i) == nil, m.raiseSPI(i)
			case op < 48:
				c, i := core(), irq()
				got, want = d.RaisePPI(c, i) == nil, m.raisePPI(c, i)
			case op < 53:
				c, i := core(), rng.Intn(NumSGI+2)-1
				got, want = d.SendSGI(c, i) == nil, m.sendSGI(c, i)
			case op < 57:
				c, mask := core(), uint8(rng.Intn(0x100))
				got, want = d.SetPriorityMask(c, mask) == nil, m.setPriorityMask(c, mask)
			case op < 75:
				c := rng.Intn(cores)
				got, want = d.Acknowledge(c), m.acknowledge(c)
			case op < 90:
				c, i := core(), irq()
				got, want = d.EOI(c, i) == nil, m.eoi(c, i)
			case op < 95:
				dSnaps = append(dSnaps, d.Snapshot())
				mSnaps = append(mSnaps, m.clone())
			default:
				if len(dSnaps) == 0 {
					continue
				}
				k := rng.Intn(len(dSnaps))
				d.Restore(dSnaps[k])
				m = mSnaps[k].clone()
			}
			if got != want {
				t.Fatalf("seed %d step %d: distributor returned %v, model %v", seed, step, got, want)
			}
			if err := sameObservable(d, m, sink); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

func sameObservable(d *Distributor, m *refGIC, sink *recorder) error {
	for c := 0; c < m.cores; c++ {
		if d.PendingCount(c) != len(m.pending[c]) {
			return fmt.Errorf("core %d PendingCount %d, model %d", c, d.PendingCount(c), len(m.pending[c]))
		}
		if d.HasPending(c) != m.hasPending(c) {
			return fmt.Errorf("core %d HasPending %v, model %v", c, d.HasPending(c), m.hasPending(c))
		}
	}
	for i := -2; i < FirstSPI+m.spis+2; i++ {
		if d.Enabled(i) != m.enabled(i) {
			return fmt.Errorf("Enabled(%d) = %v, model %v", i, d.Enabled(i), m.enabled(i))
		}
	}
	if d.Stats() != m.stats {
		return fmt.Errorf("stats %+v, model %+v", d.Stats(), m.stats)
	}
	if !slices.Equal(sink.asserted, m.sink.asserted) {
		return fmt.Errorf("sink assertions %v, model %v", sink.asserted, m.sink.asserted)
	}
	return nil
}

// TestOutOfRangeIRQDoesNotPanic: EOI and Enabled index the bitmaps and
// the dense IRQ array, so an ID outside [0, FirstSPI+spis) must be
// rejected before it is used as an index.
func TestOutOfRangeIRQDoesNotPanic(t *testing.T) {
	d, _ := newGIC()
	for _, irq := range []int{-1, -64, FirstSPI + 256, FirstSPI + 256 + 64, SpuriousIRQ, 1 << 20} {
		if err := d.EOI(0, irq); err == nil {
			t.Errorf("EOI(0, %d) accepted", irq)
		}
		if d.Enabled(irq) {
			t.Errorf("Enabled(%d) = true", irq)
		}
	}
}
