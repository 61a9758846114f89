package kernel

import (
	"testing"

	"khsim/internal/machine"
	"khsim/internal/sim"
)

// TestCFSTickAllocs pins the allocation cost of the CFS hrtimer path
// when nothing is due: the pending wakes are filtered in place and the
// "<label>.tick" activity label is built once at Attach, so a tick
// allocates only its completion closure, the core activity and the
// engine event that completes it.
func TestCFSTickAllocs(t *testing.T) {
	node := machine.MustNew(machine.PineA64Config(1))
	p := NewCFSPolicy(CFSParams{
		TickHz:              1000,
		TickCost:            sim.FromMicros(2),
		WakeCost:            sim.FromMicros(1),
		SchedLatencyNS:      6e6,
		WakeupGranularityNS: 1e6,
	})
	k := NewNative(node, p, Config{Label: "linux"})
	c := node.Cores[0]
	// Neither the tick nor any of the pending wakes is due during the run.
	far := node.Now().Add(sim.FromSeconds(3600))
	p.tickAt[0] = far
	for i := 0; i < 4; i++ {
		p.wakes[0] = append(p.wakes[0], wake{at: far, t: &Task{}})
	}
	tick := func() {
		p.OnTick(k, c)
		node.Engine.Step() // complete the tick activity, freeing the core
	}
	tick() // arm the hrtimer once so every measured run is alike
	if got := testing.AllocsPerRun(100, tick); got > 3 {
		t.Fatalf("CFS tick with nothing due allocates %v times, want <= 3", got)
	}
	if len(p.wakes[0]) != 4 {
		t.Fatalf("%d pending wakes left, want all 4", len(p.wakes[0]))
	}
}
