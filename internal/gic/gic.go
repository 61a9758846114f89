// Package gic models an ARM GICv2-style interrupt controller: a shared
// distributor plus one CPU interface per core. It supports the three ARM
// interrupt classes (SGI 0–15, PPI 16–31, SPI 32+), per-IRQ enables and
// priorities, per-core pending/active state, and the acknowledge/EOI
// protocol.
//
// Hafnium gives the primary VM the physical GIC and exposes a para-virtual
// interrupt controller to secondaries (internal/hafnium builds that view
// on top of a second Distributor instance).
package gic

import (
	"fmt"
	"math"
	"math/bits"
)

// IRQ class boundaries.
const (
	NumSGI      = 16 // software-generated, per core
	FirstPPI    = 16 // private peripheral, per core
	FirstSPI    = 32 // shared peripheral, global
	SpuriousIRQ = 1023
)

// Well-known PPI numbers on ARMv8 systems (from the architecture's
// recommended assignments, used by Linux and Hafnium alike).
const (
	IRQVirtualTimer = 27 // EL1 virtual timer
	IRQHypTimer     = 26 // EL2 physical timer
	IRQPhysTimer    = 30 // EL1 physical timer
	IRQSecureTimer  = 29 // EL3/secure physical timer
)

// Class describes which kind of interrupt an IRQ ID is.
type Class int

// Interrupt classes.
const (
	SGI Class = iota
	PPI
	SPI
)

// ClassOf reports the class of an IRQ ID.
func ClassOf(irq int) Class {
	switch {
	case irq < FirstPPI:
		return SGI
	case irq < FirstSPI:
		return PPI
	default:
		return SPI
	}
}

func (c Class) String() string {
	switch c {
	case SGI:
		return "SGI"
	case PPI:
		return "PPI"
	default:
		return "SPI"
	}
}

// Asserter receives the distributor's "IRQ line high" signal for a core.
// The machine's Core implements it; delivery timing (interrupt masking,
// priorities already filtered here) is the core's business.
type Asserter interface {
	AssertIRQ(core int)
}

// irqState is one IRQ's distributor configuration. It is kept to four
// bytes: the distributor holds one per IRQ ID in a dense array.
type irqState struct {
	enabled  bool
	priority uint8  // lower value = higher priority, GIC convention
	target   uint16 // SPI routing target core
}

// defaultPriority is the reset priority of every IRQ.
const defaultPriority = 0xA0

// Distributor is the shared half of the GIC plus all per-core interfaces.
// Like GICD_ISPENDR/GICD_ISACTIVER, per-core pending and active state is
// a bitmap over IRQ IDs: core c's words are [c*words, (c+1)*words).
type Distributor struct {
	cores    int
	spis     int
	words    int        // bitmap words per core
	irqs     []irqState // indexed by IRQ ID; SGI/PPI config is not banked
	pending  []uint64   // per-core pending bitmaps
	active   []uint64   // per-core acknowledged-awaiting-EOI bitmaps
	maskPrio []uint8    // per core: priority mask (PMR); IRQs with priority >= mask are filtered
	sink     Asserter
	stats    Stats
}

// Stats counts distributor activity.
type Stats struct {
	Raised   uint64
	Acked    uint64
	EOIs     uint64
	Spurious uint64
	Dropped  uint64 // raised while disabled
}

// New builds a distributor for the given core count and SPI capacity.
func New(cores, spis int) *Distributor {
	if cores <= 0 || cores > math.MaxUint16+1 {
		panic(fmt.Sprintf("gic: bad core count %d", cores))
	}
	n := FirstSPI + spis
	words := (n + 63) / 64
	d := &Distributor{
		cores:    cores,
		spis:     spis,
		words:    words,
		irqs:     make([]irqState, n),
		pending:  make([]uint64, cores*words),
		active:   make([]uint64, cores*words),
		maskPrio: make([]uint8, cores),
	}
	for i := range d.irqs {
		d.irqs[i].priority = defaultPriority
	}
	for i := range d.maskPrio {
		d.maskPrio[i] = 0xFF // unmasked
	}
	return d
}

// SetSink installs the delivery callback (the machine's core array).
func (d *Distributor) SetSink(s Asserter) { d.sink = s }

// Cores reports the number of CPU interfaces.
func (d *Distributor) Cores() int { return d.cores }

// Stats returns a snapshot of the counters.
func (d *Distributor) Stats() Stats { return d.stats }

func (d *Distributor) validIRQ(irq int) error {
	if irq < 0 || irq >= FirstSPI+d.spis {
		return fmt.Errorf("gic: IRQ %d out of range", irq)
	}
	return nil
}

func (d *Distributor) validCore(core int) error {
	if core < 0 || core >= d.cores {
		return fmt.Errorf("gic: core %d out of range", core)
	}
	return nil
}

// bit locates irq's bit in core's bitmaps: the word index into
// pending/active and the mask within that word.
func (d *Distributor) bit(core, irq int) (int, uint64) {
	return core*d.words + irq>>6, 1 << (irq & 63)
}

// Enable makes an IRQ deliverable.
func (d *Distributor) Enable(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.irqs[irq].enabled = true
	return nil
}

// Disable stops delivery of an IRQ; pending state is retained.
func (d *Distributor) Disable(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.irqs[irq].enabled = false
	return nil
}

// Enabled reports whether the IRQ is enabled; an out-of-range IRQ is not.
func (d *Distributor) Enabled(irq int) bool {
	return d.validIRQ(irq) == nil && d.irqs[irq].enabled
}

// SetPriority assigns the IRQ's priority (lower = more urgent).
func (d *Distributor) SetPriority(irq int, prio uint8) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	d.irqs[irq].priority = prio
	return nil
}

// Route sets the target core for an SPI.
func (d *Distributor) Route(irq, core int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != SPI {
		return fmt.Errorf("gic: IRQ %d is not an SPI", irq)
	}
	if err := d.validCore(core); err != nil {
		return err
	}
	d.irqs[irq].target = uint16(core)
	return nil
}

// RaiseSPI marks a shared interrupt pending and asserts its routed core.
func (d *Distributor) RaiseSPI(irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != SPI {
		return fmt.Errorf("gic: RaiseSPI on %s %d", ClassOf(irq), irq)
	}
	return d.raiseOn(irq, int(d.irqs[irq].target))
}

// RaisePPI marks a private interrupt pending on one core.
func (d *Distributor) RaisePPI(core, irq int) error {
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	if ClassOf(irq) != PPI {
		return fmt.Errorf("gic: RaisePPI on %s %d", ClassOf(irq), irq)
	}
	if err := d.validCore(core); err != nil {
		return err
	}
	return d.raiseOn(irq, core)
}

// SendSGI delivers a software-generated interrupt from one core to another
// (inter-processor interrupt). Hafnium's Kitten port uses these for
// cross-core VM management kicks.
func (d *Distributor) SendSGI(toCore, irq int) error {
	if irq < 0 || irq >= NumSGI {
		return fmt.Errorf("gic: SGI %d out of range", irq)
	}
	if err := d.validCore(toCore); err != nil {
		return err
	}
	return d.raiseOn(irq, toCore)
}

func (d *Distributor) raiseOn(irq, core int) error {
	s := &d.irqs[irq]
	if !s.enabled {
		d.stats.Dropped++
		return nil
	}
	d.stats.Raised++
	w, b := d.bit(core, irq)
	if (d.pending[w]|d.active[w])&b != 0 {
		return nil // level already high / still in service
	}
	d.pending[w] |= b
	if s.priority < d.maskPrio[core] && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

// SetPriorityMask sets the core's PMR; IRQs with priority >= mask are held.
func (d *Distributor) SetPriorityMask(core int, mask uint8) error {
	if err := d.validCore(core); err != nil {
		return err
	}
	d.maskPrio[core] = mask
	// Newly unmasked pending IRQs re-assert the line.
	if d.HasPending(core) && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

// best returns the highest-priority deliverable pending IRQ on core, or
// SpuriousIRQ. Bits are scanned in ascending IRQ ID and only a strictly
// more urgent priority replaces the current pick, so the lowest ID wins
// ties.
func (d *Distributor) best(core int) int {
	best := SpuriousIRQ
	var bestPrio uint8
	mask := d.maskPrio[core]
	for w, word := range d.pending[core*d.words : (core+1)*d.words] {
		for ; word != 0; word &= word - 1 {
			irq := w<<6 | bits.TrailingZeros64(word)
			s := &d.irqs[irq]
			if !s.enabled || s.priority >= mask {
				continue
			}
			if best == SpuriousIRQ || s.priority < bestPrio {
				best, bestPrio = irq, s.priority
			}
		}
	}
	return best
}

// HasPending reports whether the core has any deliverable pending IRQ.
func (d *Distributor) HasPending(core int) bool { return d.best(core) != SpuriousIRQ }

// Acknowledge returns the highest-priority deliverable pending IRQ for the
// core, moving it pending→active. With nothing pending it returns the
// spurious IRQ 1023, as real hardware does.
func (d *Distributor) Acknowledge(core int) int {
	best := d.best(core)
	if best == SpuriousIRQ {
		d.stats.Spurious++
		return SpuriousIRQ
	}
	w, b := d.bit(core, best)
	d.pending[w] &^= b
	d.active[w] |= b
	d.stats.Acked++
	return best
}

// EOI signals end-of-interrupt, clearing the active state.
func (d *Distributor) EOI(core, irq int) error {
	if err := d.validCore(core); err != nil {
		return err
	}
	if err := d.validIRQ(irq); err != nil {
		return err
	}
	w, b := d.bit(core, irq)
	if d.active[w]&b == 0 {
		return fmt.Errorf("gic: EOI for inactive IRQ %d on core %d", irq, core)
	}
	d.active[w] &^= b
	// A still-pending instance (level interrupt) re-asserts.
	if d.HasPending(core) && d.sink != nil {
		d.sink.AssertIRQ(core)
	}
	return nil
}

// PendingCount reports the number of pending IRQs on a core (any state).
func (d *Distributor) PendingCount(core int) int {
	n := 0
	for _, word := range d.pending[core*d.words : (core+1)*d.words] {
		n += bits.OnesCount64(word)
	}
	return n
}
