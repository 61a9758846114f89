package harness

import (
	"fmt"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/kitten"
	"khsim/internal/machine"
	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

// rack is a cluster experiment's rack: a secure node per machine, each
// with a replica VM that spins on core 1 and carries the replicated
// attestation ledger. Describe it in the first block of fields, then
// build it.
type rack struct {
	cluster   machine.ClusterConfig
	plan      func(node int) string // node's Hafnium partition plan
	replicaVM string
	run       sim.Duration
	spinChunk sim.Duration
	protocol  cluster.Config
	attach    func(node int, n *core.SecureNode) error // optional, before boot

	// Set by build.
	mc       *machine.Cluster
	stacks   []*core.SecureNode
	replicas []*hafnium.VM
	engines  []*sim.Engine
	svc      *cluster.Service
	ids      *tz.Identities
	stopAt   sim.Time // proposals stop here so the tail can drain commits
}

// build constructs and boots the rack and starts replication. perfbench's
// construction mirrors charge setup time on the assumption that the
// harness builds in exactly this constructor order.
func (r *rack) build() error {
	mc, err := machine.NewCluster(r.cluster)
	if err != nil {
		return err
	}
	nodes := r.cluster.Nodes
	r.mc = mc
	r.stacks = make([]*core.SecureNode, nodes)
	r.replicas = make([]*hafnium.VM, nodes)
	r.engines = make([]*sim.Engine, nodes)
	r.ids = tz.NewIdentities(r.cluster.Seed, nodes)
	r.stopAt = sim.Time(0).Add(r.run - r.run/8)
	for i := 0; i < nodes; i++ {
		n, err := core.NewSecureNode(core.Options{
			Node:      mc.Nodes[i],
			Manifest:  r.plan(i),
			Scheduler: core.SchedulerKitten,
		})
		if err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		// The replica VM spins for longer than the run so crash/restart
		// cycles always have live work to kill.
		guest := kitten.NewGuest(kitten.DefaultParams())
		spin := noise.NewSelfish(fmt.Sprintf("attest%d", i), r.run*4)
		if r.spinChunk > 0 {
			spin.ChunkTime = r.spinChunk
		}
		guest.Attach(0, spin)
		n.Machine.RegisterSnapshotter("proc."+spin.Name(), spin)
		if err := n.AttachGuest(r.replicaVM, guest, 1); err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		if r.attach != nil {
			if err := r.attach(i, n); err != nil {
				return fmt.Errorf("harness: node %d: %w", i, err)
			}
		}
		if err := n.Boot(); err != nil {
			return fmt.Errorf("harness: node %d: %w", i, err)
		}
		vm, ok := n.Hyp.VMByName(r.replicaVM)
		if !ok {
			return fmt.Errorf("harness: node %d: no VM %q", i, r.replicaVM)
		}
		r.stacks[i], r.replicas[i], r.engines[i] = n, vm, n.Machine.Engine
	}

	r.svc, err = cluster.New(mc.Fabric, r.engines, r.protocol)
	if err != nil {
		return err
	}
	r.svc.SetMetrics(mc.Metrics)
	for i := range r.replicas {
		vm := r.replicas[i]
		r.svc.SetAlive(i, func() bool { return vm.State() == hafnium.VMRunning })
	}
	return r.svc.Start()
}

// proposeLifecycle hooks every node's lifecycle transitions until
// stopAt: each is stamped with the node's identity as it lands in the
// node-local ledger and, when the stamp verifies, handed to the
// experiment's proposal policy.
func (r *rack) proposeLifecycle(propose func(id int, eng *sim.Engine, rec []byte)) {
	for i, n := range r.stacks {
		id, eng := i, r.engines[i]
		n.OnLifecycle = func(ev hafnium.LifecycleEvent) {
			if eng.Now() > r.stopAt {
				return
			}
			rec, ok := r.ids.Stamp(id, []byte(fmt.Sprintf("lifecycle n%d %s vm=%s restarts=%d",
				id, ev.Kind, ev.VM, ev.Restarts)))
			if ok {
				propose(id, eng, rec)
			}
		}
	}
}

// inject starts a fault injector over the rack, homed on node 0, that
// fires rules until the end of the run.
func (r *rack) inject(rules []faults.Rule) (*faults.Injector, error) {
	in, err := faults.New(r.mc.Nodes[0], r.stacks[0].Hyp, r.cluster.Seed, rules)
	if err != nil {
		return nil, err
	}
	in.SetCluster(r.mc)
	return in, in.Start(sim.Time(0).Add(r.run))
}

// LedgerAudit is a cluster experiment's replicated ledger after the run.
type LedgerAudit struct {
	PrefixConsistent bool     // every replica pair agrees on its common prefix
	Converged        bool     // identical logs, every entry committed
	ChainErrs        []string // hash-chain breaks, by node
	LogLens, Commits []uint64 // per node
}

// audit checks the replicated ledger into a — pairwise prefix
// consistency, each node's hash chain, convergence — and returns node
// 0's ledger.
func (r *rack) audit(a *LedgerAudit) []tz.AttestRecord {
	logs := r.svc.Logs()
	a.PrefixConsistent, a.Converged = r.svc.PrefixConsistent(), true
	for i, l := range logs {
		commit := r.svc.Replica(i).Commit()
		a.LogLens = append(a.LogLens, l.Len())
		a.Commits = append(a.Commits, commit)
		if err := l.Verify(); err != nil {
			a.ChainErrs = append(a.ChainErrs, fmt.Sprintf("n%d: %v", i, err))
		}
		if l.Len() != logs[0].Len() || l.Head() != logs[0].Head() || commit != l.Len() {
			a.Converged = false
		}
	}
	return logs[0].Slice(0, logs[0].Len())
}
