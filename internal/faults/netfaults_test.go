package faults_test

import (
	"strings"
	"testing"

	"khsim/internal/faults"
	"khsim/internal/net"
	"khsim/internal/sim"
)

// netRig pairs a booted secure node (fabric node 0, the injector's home)
// with a bare peer engine (fabric node 1) and drains both in global
// timestamp order.
type netRig struct {
	engines []*sim.Engine
	fabric  *net.Fabric
	got     []string // kinds delivered to node 1
}

func newNetRig(t *testing.T, home *sim.Engine) *netRig {
	t.Helper()
	f, err := net.NewFabric(2, net.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	r := &netRig{engines: []*sim.Engine{home, sim.NewEngine(999)}, fabric: f}
	for i, e := range r.engines {
		if err := f.Attach(net.NodeID(i), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Bind(1, func(m net.Message) { r.got = append(r.got, m.Kind) }); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *netRig) runUntil(until sim.Time) {
	for {
		best, bt := -1, sim.Time(0)
		for i, e := range r.engines {
			if at, ok := e.NextAt(); ok && (best < 0 || at < bt) {
				best, bt = i, at
			}
		}
		if best < 0 || bt > until {
			return
		}
		r.engines[best].Step()
	}
}

func TestNetworkFaultKinds(t *testing.T) {
	ms := func(v float64) sim.Time { return sim.Time(0).Add(sim.FromMicros(v * 1000)) }
	n, in := buildSystem(t, 777, []faults.Rule{
		{Kind: faults.NetDrop, Target: "node1", At: []sim.Time{ms(0.5)}, Burst: 2},
		{Kind: faults.NetPartition, Target: "node1", At: []sim.Time{ms(2)}},
		{Kind: faults.NetHeal, Target: "node1", At: []sim.Time{ms(4)}},
		{Kind: faults.NetDelay, Target: "node0", At: []sim.Time{ms(6)}, Drift: sim.FromMicros(100), Window: sim.FromMicros(1000)},
	})
	rig := newNetRig(t, n.Machine.Engine)
	in.SetFabric(rig.fabric)
	if err := in.Start(ms(10)); err != nil {
		t.Fatal(err)
	}
	// Sends from node 0, timed around the fault schedule: three into the
	// drop burst (one survives), one into the partition (lost), one after
	// the heal, one inside the delay window.
	for _, s := range []struct {
		at   float64
		kind string
	}{
		{0.6, "dropped-a"}, {0.7, "dropped-b"}, {0.8, "survives"},
		{3, "partitioned"}, {4.5, "healed"}, {6.2, "delayed"},
	} {
		kind := s.kind
		n.Machine.Engine.ScheduleNamed(ms(s.at), "test.send", func() {
			if err := rig.fabric.Send(0, 1, kind, nil, 64); err != nil {
				t.Error(err)
			}
		})
	}
	rig.runUntil(ms(10))
	want := []string{"survives", "healed", "delayed"}
	if len(rig.got) != len(want) {
		t.Fatalf("delivered %v, want %v", rig.got, want)
	}
	for i := range want {
		if rig.got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", rig.got, want)
		}
	}
	st := rig.fabric.Stats()
	if st.DroppedInjected != 2 || st.DroppedPartition != 1 || st.DelayedInjected != 1 {
		t.Fatalf("fabric stats = %+v", st)
	}
	if got := in.Stats().Injected; got != 4 {
		t.Fatalf("injected = %d, want 4 (one per rule)", got)
	}
	var trace strings.Builder
	for _, r := range in.Trace() {
		trace.WriteString(r.String())
		trace.WriteByte('\n')
	}
	for _, frag := range []string{"partition", "heal", "netdrop", "netdelay", "node1", "node0"} {
		if !strings.Contains(trace.String(), frag) {
			t.Fatalf("trace missing %q:\n%s", frag, trace.String())
		}
	}
}

func TestNetworkFaultValidation(t *testing.T) {
	n, _ := buildSystem(t, 778, nil)
	// A network rule whose target is not exactly node<N> — a VM name,
	// trailing garbage, a sign, no number — is rejected up front.
	for _, target := range []string{"job", "node1x", "node-1", "node", "node+1", "node01", "xnode1"} {
		if _, err := faults.New(n.Machine, n.Hyp, 1, []faults.Rule{
			{Kind: faults.NetPartition, Target: target, At: []sim.Time{sim.Time(0).Add(sim.FromMicros(1))}},
		}); err == nil {
			t.Errorf("accepted network fault target %q", target)
		}
	}
	// Starting with net rules but no fabric fails.
	in, err := faults.New(n.Machine, n.Hyp, 1, []faults.Rule{
		{Kind: faults.NetHeal, Target: "node0", At: []sim.Time{sim.Time(0).Add(sim.FromMicros(1))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Start(sim.Time(0).Add(sim.FromMicros(100))); err == nil {
		t.Fatal("started network rules without a fabric")
	}
}

func TestNetworkFaultRotatesNodes(t *testing.T) {
	ms := func(v float64) sim.Time { return sim.Time(0).Add(sim.FromMicros(v * 1000)) }
	// No Target: the injector rotates over fabric nodes.
	n, in := buildSystem(t, 779, []faults.Rule{
		{Kind: faults.NetDrop, At: []sim.Time{ms(1), ms(2)}},
	})
	rig := newNetRig(t, n.Machine.Engine)
	in.SetFabric(rig.fabric)
	if err := in.Start(ms(5)); err != nil {
		t.Fatal(err)
	}
	rig.runUntil(ms(5))
	tr := in.Trace()
	if len(tr) != 2 || tr[0].Target == tr[1].Target {
		t.Fatalf("rotation trace = %+v", tr)
	}
}
