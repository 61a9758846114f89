// Package net models the rack fabric joining simulated nodes: a full
// mesh of point-to-point links with configurable propagation latency and
// serialization bandwidth. Like the DRAM model, the fabric charges its
// costs through the discrete-event engine — a message occupies its
// directed link for Bytes/Bandwidth of simulated time (back-to-back sends
// queue FIFO behind the link cursor) and then propagates for Latency
// before a delivery event fires on the *destination* node's engine.
//
// The fabric is also the injection point for deterministic network
// faults: a node can be partitioned (all its traffic dropped, in flight
// included), individual messages can be dropped, and a delay spike can
// stretch a node's links for a window. Everything the fabric does is a
// pure function of (configuration, send order, fault schedule), so
// same-seed cluster runs deliver bit-identical message traces.
package net

import (
	"fmt"

	"khsim/internal/metrics"
	"khsim/internal/sim"
)

// NodeID identifies a node on the fabric (dense, starting at 0).
type NodeID int

// Message is one datagram in flight between two nodes. Payload is an
// arbitrary protocol-owned value; Bytes is the wire size the link
// serializes (headers included), which the bandwidth model charges.
type Message struct {
	From, To NodeID
	Kind     string
	Payload  any
	Bytes    int
	// Seq is the fabric-global send sequence number: a deterministic
	// identity for logging and drop accounting.
	Seq uint64
	// SentAt is the sender-side timestamp the message left the NIC queue.
	SentAt sim.Time
}

// Handler consumes a delivered message on the destination node. It runs
// inside an event on the destination node's engine.
type Handler func(m Message)

// LinkConfig describes every point-to-point link in the (homogeneous)
// fabric.
type LinkConfig struct {
	// Latency is the propagation delay, charged after serialization.
	// It must be positive: a zero-latency fabric would destroy the
	// cross-node lookahead the cluster multiplexer relies on.
	Latency sim.Duration
	// Bandwidth is the per-direction link bandwidth in bytes/second.
	Bandwidth float64
}

// DefaultLink returns rack-scale parameters: 50 µs of latency (a
// software-switched management network, not RDMA) at 1 GB/s.
func DefaultLink() LinkConfig {
	return LinkConfig{Latency: sim.FromMicros(50), Bandwidth: 1e9}
}

// Stats counts fabric activity. Dropped splits by cause, and partition
// drops further split by *where* the message died: at send time (the
// sender or receiver was already cut off) or in flight (the partition
// landed while the message was on the wire). Migration tests use the
// split to assert which side of a transfer a fault killed.
type Stats struct {
	Sent                     uint64
	Delivered                uint64
	DroppedPartition         uint64 // dropped at send time: an endpoint was partitioned
	DroppedPartitionInFlight uint64 // dropped at delivery time: partition arrived mid-flight
	DroppedInjected          uint64 // explicit DropNext faults
	DelayedInjected          uint64 // messages stretched by a delay spike
}

// Dropped is the total message loss from all causes.
func (s Stats) Dropped() uint64 {
	return s.DroppedPartition + s.DroppedPartitionInFlight + s.DroppedInjected
}

// kindBinding routes messages whose Kind starts with a prefix to a
// dedicated handler, letting several protocols share one node (e.g. the
// replication service on the default handler and migration transfers on
// a "mig." binding).
type kindBinding struct {
	prefix  string
	handler Handler
}

// endpoint is one attached node.
type endpoint struct {
	eng     *sim.Engine
	handler Handler
	kinds   []kindBinding // checked in registration order before handler

	partitioned bool
	dropNext    int          // drop the next N messages touching this node
	delayUntil  sim.Time     // delay spike window end
	delayExtra  sim.Duration // extra latency while the window is open
}

// Fabric is the full-mesh interconnect. Build with NewFabric, Attach each
// node's engine, Bind delivery handlers, then Send freely from inside
// node events. The fabric is not safe for concurrent use; like everything
// else in the simulator it runs single-threaded inside engine callbacks.
type Fabric struct {
	link  LinkConfig
	nodes []endpoint
	// busy is the per-directed-link serialization cursor: the time the
	// link (from,to) finishes transmitting everything queued on it.
	busy map[[2]NodeID]sim.Time
	seq  uint64

	stats     Stats
	deliverFn func(any) // pre-bound to avoid a closure per message
	reg       *metrics.Registry
	mSent     *metrics.Counter
	mDeliv    *metrics.Counter
	mDropped  *metrics.Counter
}

// NewFabric builds a fabric for n nodes with homogeneous links.
func NewFabric(n int, link LinkConfig) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("net: fabric needs at least one node, got %d", n)
	}
	if link.Latency <= 0 {
		return nil, fmt.Errorf("net: link latency must be positive (cross-node lookahead)")
	}
	if link.Bandwidth <= 0 {
		return nil, fmt.Errorf("net: link bandwidth must be positive")
	}
	f := &Fabric{
		link:  link,
		nodes: make([]endpoint, n),
		busy:  make(map[[2]NodeID]sim.Time),
	}
	f.deliverFn = f.deliver
	return f, nil
}

// SetMetrics points the fabric at a registry (typically the cluster-level
// one) for sent/delivered/dropped counters.
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	f.reg = reg
	f.mSent = reg.Counter(metrics.K("net", "sent"))
	f.mDeliv = reg.Counter(metrics.K("net", "delivered"))
	f.mDropped = reg.Counter(metrics.K("net", "dropped"))
}

// Nodes reports the fabric size.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// Link returns the fabric's link configuration.
func (f *Fabric) Link() LinkConfig { return f.link }

// Attach registers node id's engine. Must be called for every node before
// the first Send touching it.
func (f *Fabric) Attach(id NodeID, eng *sim.Engine) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.nodes[id].eng = eng
	return nil
}

// Bind installs the delivery handler for node id (the protocol layer's
// receive entry point). Rebinding replaces the previous handler.
func (f *Fabric) Bind(id NodeID, h Handler) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.nodes[id].handler = h
	return nil
}

// BindKind installs a handler for node id that receives only messages
// whose Kind starts with prefix. Kind bindings are checked in
// registration order before the default Bind handler, so independent
// protocols (replication, migration) can share a node without stealing
// each other's traffic. Rebinding an existing prefix replaces its
// handler.
func (f *Fabric) BindKind(id NodeID, prefix string, h Handler) error {
	if err := f.check(id); err != nil {
		return err
	}
	if prefix == "" {
		return fmt.Errorf("net: BindKind needs a non-empty kind prefix")
	}
	ep := &f.nodes[id]
	for i := range ep.kinds {
		if ep.kinds[i].prefix == prefix {
			ep.kinds[i].handler = h
			return nil
		}
	}
	ep.kinds = append(ep.kinds, kindBinding{prefix: prefix, handler: h})
	return nil
}

func (f *Fabric) check(id NodeID) error {
	if id < 0 || int(id) >= len(f.nodes) {
		return fmt.Errorf("net: node %d out of range [0,%d)", id, len(f.nodes))
	}
	return nil
}

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// LinkBusyUntil reports when the directed link (from, to) finishes
// serializing everything queued on it — the link cursor. Bulk-transfer
// protocols (live migration pre-copy) pace their rounds off it so round
// boundaries reflect real contention from whatever else shares the link,
// instead of a private estimate that would drift from the fabric's.
func (f *Fabric) LinkBusyUntil(from, to NodeID) sim.Time {
	return f.busy[[2]NodeID{from, to}]
}

// Partitioned reports whether node id is currently partitioned. An
// out-of-range id is a programming bug — asking about a node that does
// not exist — and panics rather than silently answering "connected".
func (f *Fabric) Partitioned(id NodeID) bool {
	if err := f.check(id); err != nil {
		panic(err.Error())
	}
	return f.nodes[id].partitioned
}

// Partition isolates node id: every message sent by it, addressed to it,
// or already in flight toward it is dropped until Heal.
func (f *Fabric) Partition(id NodeID) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.nodes[id].partitioned = true
	return nil
}

// Heal reconnects a partitioned node. Messages lost during the partition
// stay lost; the protocol layer's retries are what reconverge state.
func (f *Fabric) Heal(id NodeID) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.nodes[id].partitioned = false
	return nil
}

// DropNext drops the next n messages sent by or addressed to node id — a
// targeted loss burst, checked and consumed at send time.
func (f *Fabric) DropNext(id NodeID, n int) error {
	if err := f.check(id); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("net: negative drop count %d", n)
	}
	f.nodes[id].dropNext += n
	return nil
}

// DelaySpike stretches every link touching node id by extra for a window
// starting now (by the node's own clock) — congestion or a slow switch,
// not loss. The spike applies to messages *sent* during the window.
// Overlapping spikes merge extend-never-shrink: the window ends at the
// later of the two ends and the extra latency is the larger of the two,
// so a short late spike can never truncate an earlier longer one. A
// spike arriving after the previous window expired replaces it outright.
func (f *Fabric) DelaySpike(id NodeID, extra sim.Duration, window sim.Duration) error {
	if err := f.check(id); err != nil {
		return err
	}
	if extra < 0 || window < 0 {
		return fmt.Errorf("net: negative delay spike")
	}
	ep := &f.nodes[id]
	if ep.eng == nil {
		return fmt.Errorf("net: node %d not attached", id)
	}
	now := ep.eng.Now()
	until := now.Add(window)
	if now >= ep.delayUntil {
		// Previous spike is over; its extra must not leak into this one.
		ep.delayUntil = until
		ep.delayExtra = extra
		return nil
	}
	if until > ep.delayUntil {
		ep.delayUntil = until
	}
	if extra > ep.delayExtra {
		ep.delayExtra = extra
	}
	return nil
}

// spikeExtra reports the extra latency a message sent now pays for the
// endpoints' active delay windows (spikes on both ends stack).
func (f *Fabric) spikeExtra(now sim.Time, from, to NodeID) (sim.Duration, bool) {
	var d sim.Duration
	hit := false
	for _, id := range [2]NodeID{from, to} {
		ep := &f.nodes[id]
		if now < ep.delayUntil && ep.delayExtra > 0 {
			d += ep.delayExtra
			hit = true
		}
	}
	return d, hit
}

// Send transmits a message from node `from` to node `to`. It must be
// called from inside an event on the sender's engine (the send timestamp
// is the sender's clock). The message serializes on the directed link
// behind anything already queued, then propagates; the delivery handler
// fires as an event on the destination engine. Loss — partition or an
// injected drop — is silent, exactly as a real datagram network loses
// packets: the sender learns nothing and must rely on protocol retries.
func (f *Fabric) Send(from, to NodeID, kind string, payload any, bytes int) error {
	if err := f.check(from); err != nil {
		return err
	}
	if err := f.check(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("net: node %d sending to itself", from)
	}
	if bytes <= 0 {
		return fmt.Errorf("net: message needs a positive wire size, got %d", bytes)
	}
	src, dst := &f.nodes[from], &f.nodes[to]
	if src.eng == nil || dst.eng == nil {
		return fmt.Errorf("net: link %d->%d has an unattached endpoint", from, to)
	}
	now := src.eng.Now()
	f.seq++
	f.stats.Sent++
	if f.mSent != nil {
		f.mSent.Inc()
	}
	// Injected single-message drops are consumed at send time so a burst
	// of n eats exactly the next n messages touching the node. A message
	// between two targeted nodes counts against BOTH budgets: each node's
	// "next n messages sent by or addressed to me" contract holds
	// independently, and this message is one of those for each side.
	if src.dropNext > 0 || dst.dropNext > 0 {
		if src.dropNext > 0 {
			src.dropNext--
		}
		if dst.dropNext > 0 {
			dst.dropNext--
		}
		f.stats.DroppedInjected++
		if f.mDropped != nil {
			f.mDropped.Inc()
		}
		return nil
	}
	if src.partitioned || dst.partitioned {
		f.stats.DroppedPartition++
		if f.mDropped != nil {
			f.mDropped.Inc()
		}
		return nil
	}
	// Serialization: the directed link transmits FIFO, so this message
	// starts when the link is free and occupies it for bytes/bandwidth.
	key := [2]NodeID{from, to}
	start := now
	if b := f.busy[key]; b > start {
		start = b
	}
	tx := sim.Duration(float64(bytes) / f.link.Bandwidth * float64(sim.Second))
	f.busy[key] = start.Add(tx)
	deliverAt := start.Add(tx).Add(f.link.Latency)
	if extra, hit := f.spikeExtra(now, from, to); hit {
		deliverAt = deliverAt.Add(extra)
		f.stats.DelayedInjected++
	}
	m := &Message{From: from, To: to, Kind: kind, Payload: payload, Bytes: bytes, Seq: f.seq, SentAt: now}
	dst.eng.ScheduleArg(deliverAt, "net.deliver", f.deliverFn, m)
	return nil
}

// deliver runs on the destination engine: the partition state is
// re-checked at delivery time so a partition arriving while the message
// was in flight still loses it (counted separately, as an in-flight
// partition drop). Delivery dispatches on kind bindings first, falling
// back to the node's default handler.
func (f *Fabric) deliver(arg any) {
	m := arg.(*Message)
	src, dst := &f.nodes[m.From], &f.nodes[m.To]
	if src.partitioned || dst.partitioned {
		f.stats.DroppedPartitionInFlight++
		if f.mDropped != nil {
			f.mDropped.Inc()
		}
		return
	}
	f.stats.Delivered++
	if f.mDeliv != nil {
		f.mDeliv.Inc()
	}
	for i := range dst.kinds {
		kb := &dst.kinds[i]
		if len(m.Kind) >= len(kb.prefix) && m.Kind[:len(kb.prefix)] == kb.prefix {
			kb.handler(*m)
			return
		}
	}
	if dst.handler != nil {
		dst.handler(*m)
	}
}
