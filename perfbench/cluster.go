package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/hafnium"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/machine"
	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

// cluster-failover is the shipped failover manifest scaled to 8 nodes
// with a long run — leader kill, partition, heal — on the default
// sequential multiplexer. Signing every proposal makes ed25519 most of
// its host time; the rest is the fabric and Raft-lite. It never builds a
// serving pool, forks or migrates. It calls the harness entry point
// itself, so it has no separate harness check.
var clusterFailover = &workloadDef{name: "cluster-failover", round: clusterRound}

const (
	clusterNodes = 8
	clusterRunS  = 12
)

func clusterManifest() (*cluster.ClusterManifest, error) {
	m, err := cluster.ParseManifest(harness.ClusterManifestText)
	if err != nil {
		return nil, err
	}
	m.Nodes = clusterNodes
	m.Run = sim.FromSeconds(clusterRunS)
	return m, nil
}

// clusterNodeConfig is the harness's per-node hardware for cluster
// experiments: 2 cores, 256 MiB.
func clusterNodeConfig() machine.Config {
	return machine.Config{
		Cores:  2,
		Freq:   machine.DefaultFreq,
		DRAMMB: 256,
		SPIs:   128,
		DRAM:   machine.DefaultDRAM(),
		Costs:  machine.DefaultCosts(machine.DefaultFreq),
	}
}

// buildFailoverRack performs the construction harness.RunClusterManifest
// performs before its run, through the same constructors, and returns
// its host time. The rack is thrown away: the harness call builds its
// own, and the benchmark charges the call minus this time to run_s.
func buildFailoverRack(b *bench, m *cluster.ClusterManifest) (time.Duration, error) {
	var total time.Duration
	var mc *machine.Cluster
	d, err := b.tr.phase("build", catSetup, func() error {
		var err error
		mc, err = machine.NewCluster(machine.ClusterConfig{Nodes: m.Nodes, Node: clusterNodeConfig(), Seed: b.seed, Link: m.Link})
		if err != nil {
			return err
		}
		for _, f := range m.Faults {
			mc.SyncAt(sim.Time(0).Add(f.At))
		}
		return nil
	})
	total += d
	if err != nil {
		return 0, err
	}
	engines := make([]*sim.Engine, m.Nodes)
	vms := make([]*hafnium.VM, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		var n *core.SecureNode
		d, err := b.tr.phase("build", catSetup, func() error {
			var err error
			n, err = core.NewSecureNode(core.Options{Node: mc.Nodes[i], Manifest: m.NodePlan, Scheduler: core.SchedulerKitten})
			if err != nil {
				return err
			}
			guest := kitten.NewGuest(kitten.DefaultParams())
			spin := noise.NewSelfish(fmt.Sprintf("attest%d", i), m.Run*4)
			if m.SpinChunk > 0 {
				spin.ChunkTime = m.SpinChunk
			}
			guest.Attach(0, spin)
			n.Machine.RegisterSnapshotter("proc."+spin.Name(), spin)
			return n.AttachGuest(m.ReplicaVM, guest, 1)
		})
		total += d
		if err != nil {
			return 0, err
		}
		d, err = b.tr.phase("boot", catSetup, n.Boot)
		total += d
		if err != nil {
			return 0, err
		}
		vm, ok := n.Hyp.VMByName(m.ReplicaVM)
		if !ok {
			return 0, fmt.Errorf("node %d: no VM %q", i, m.ReplicaVM)
		}
		engines[i], vms[i] = n.Machine.Engine, vm
	}
	d, err = b.tr.phase("build", catSetup, func() error {
		pcfg := m.Protocol
		pcfg.Seed = b.seed
		svc, err := cluster.New(mc.Fabric, engines, pcfg)
		if err != nil {
			return err
		}
		svc.SetMetrics(mc.Metrics)
		for i := range vms {
			vm := vms[i]
			svc.SetAlive(i, func() bool { return vm.State() == hafnium.VMRunning })
		}
		return nil
	})
	total += d
	b.sampleHeap()
	runtime.KeepAlive(mc) // the rack is what the heap sample measures
	return total, err
}

func clusterRound(b *bench) (*roundResult, error) {
	m, err := clusterManifest()
	if err != nil {
		return nil, err
	}
	r := newRound()
	b.tr.unit("failover")
	r.ops++
	construct, err := buildFailoverRack(b, m)
	if err != nil {
		return nil, err
	}
	var rep *harness.FailoverReport
	call, err := b.tr.phase("failover", catFused, func() error {
		var err error
		rep, err = harness.RunClusterManifest(m, b.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.tr.fused("failover", call, construct)
	if err := rep.Check(); err != nil {
		r.fail("failover: %v", err)
	}
	r.events = rep.EventsFired
	art := rep.Artifact()
	r.out.WriteString(art)

	r.sim["failover_ms"] = float64(rep.FailoverElapsed) / float64(sim.Millisecond)
	signed := float64(rep.SigVerified + rep.SigFailed)
	r.sim["tz.signs"] = signed
	r.sim["tz.verifies"] = signed
	r.sim["net.sent"] = float64(rep.Fabric.Sent)
	r.sim["net.delivered"] = float64(rep.Fabric.Delivered)
	r.sim["net.dropped"] = float64(rep.Fabric.Dropped())
	r.sim["cluster.elections"] = float64(strings.Count(art, "leader term="))
	r.sim["cluster.proposals"] = float64(rep.SigVerified)
	if len(rep.Commits) > 0 {
		r.sim["cluster.committed"] = float64(rep.Commits[0])
	}
	if rep.SigVerified > 0 {
		r.sim["cluster.commit_ratio"] = float64(rep.SignedEntries) / float64(rep.SigVerified)
	}
	if b.tr.keep {
		if err := verifyChains(b, rep); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// verifyChains times tz.AttestLog.Verify over one chain per node, each
// as long as that node's converged ledger and filled with
// proposal-shaped payloads. The harness verifies the real chains inside
// its call but does not return them, so the benchmark rebuilds chains of
// the same length and record size to time the layer.
func verifyChains(b *bench, rep *harness.FailoverReport) error {
	for node, n := range rep.LogLens {
		log := tz.NewAttestLog()
		for i := uint64(0); i < n; i++ {
			log.Append(1, []byte(fmt.Sprintf("attest n%d ledger=%d head=%016x restarts=0 sig=%016x",
				node, i, i*0x9e3779b97f4a7c15, i*0xc2b2ae3d27d4eb4f)))
		}
		if _, err := b.tr.phase("chain-verify", catProbe, log.Verify); err != nil {
			return fmt.Errorf("chain verify n%d: %w", node, err)
		}
	}
	return nil
}
