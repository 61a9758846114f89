package harness

import (
	"bytes"
	"fmt"
	"strings"

	"khsim/internal/cluster"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/machine"
	"khsim/internal/net"
	"khsim/internal/sim"
	"khsim/internal/tz"
)

// ClusterManifestText is the built-in 3-node failover scenario (the same
// text ships as manifests/cluster-3node.manifest): one replica VM per
// node with a watchdog restart policy whose backoff (20 ms) deliberately
// dwarfs the 4–8 ms election window, a leader kill mid-term, and a
// follower partition that heals before the run ends.
const ClusterManifestText = `
# Three-node rack: a Kitten primary per node scheduling a replicated
# attestation VM. The replication layer (internal/cluster) keeps the
# hash-chained attestation ledger consistent across nodes.

[cluster]
nodes = 3
link_latency_us = 50
link_bandwidth_mbps = 1000
election_timeout_us = 4000
election_jitter_us = 4000
heartbeat_us = 800
rpc_timeout_us = 1500
replica_vm = attest
run_ms = 400
propose_interval_us = 5000

[vm primary]
class = primary
vcpus = 2
memory_mb = 128

[vm attest]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
max_restarts = 8
restart_backoff_us = 20000
restart_from_snapshot = true

# Kill whichever replica leads at 120 ms. The watchdog revives the VM
# 20 ms later -- far past the election window -- so leadership must move
# to a survivor, and the revived stale leader must step down.
[fault crash]
target = leader
at_ms = 120

# Partition the lowest-numbered surviving follower at 180 ms and heal it
# at 280 ms; after the heal it must catch up from the leader's log.
[fault partition]
target = follower
at_ms = 180

[fault heal]
target = partitioned
at_ms = 280
`

// FailoverReport is the outcome of one cluster failover experiment.
type FailoverReport struct {
	Seed  uint64
	Nodes int
	Run   sim.Duration

	// Failover: who led when the kill landed, who took over, and how
	// many candidacies it cost.
	LeaderBefore     int
	KillAt           sim.Time
	LeaderAfter      int
	ElectedAt        sim.Time
	FailoverElapsed  sim.Duration
	FailoverBound    sim.Duration // Check() requires FailoverElapsed <= this
	FailoverTimeouts uint64       // candidacies between kill and new leader
	TimeoutBound     uint64       // Check() requires FailoverTimeouts <= this

	// Partition schedule, -1 / zero when the manifest has none.
	PartitionNode int
	PartitionAt   sim.Time
	HealAt        sim.Time

	// Per-node end state.
	Restarts []int
	VMStates []string

	// Safety properties, and each node's ledger length and commit index.
	LedgerAudit

	// Signed-proposal accounting: every payload a node offers the
	// replicated ledger is signed by that node's TEE identity and
	// verified before it is proposed. SignedEntries / UnsignedEntries
	// classify what actually replicated — an unsigned committed entry
	// means something bypassed the signing path.
	SigVerified     uint64
	SigFailed       uint64
	SignedEntries   uint64
	UnsignedEntries uint64

	Fabric      net.Stats
	Injected    faults.Stats
	EventsFired uint64

	harnessTrace []cluster.TraceRecord
	protoTrace   string
	injectTrace  []faults.Record
}

// Check enforces the experiment's headline properties: a new leader
// within the bounded election window, prefix-consistent ledgers on every
// node, and full convergence (healed and revived nodes caught up) by the
// end of the run.
func (r *FailoverReport) Check() error {
	if r.KillAt > 0 {
		if r.LeaderBefore < 0 {
			return fmt.Errorf("failover: no leader had been elected by the kill at %v", r.KillAt)
		}
		if r.LeaderAfter < 0 {
			return fmt.Errorf("failover: no new leader after the kill at %v", r.KillAt)
		}
		if r.LeaderAfter == r.LeaderBefore {
			return fmt.Errorf("failover: leadership never moved off n%d", r.LeaderBefore)
		}
		if r.FailoverElapsed > r.FailoverBound {
			return fmt.Errorf("failover: new leader took %v, bound is %v", r.FailoverElapsed, r.FailoverBound)
		}
		if r.FailoverTimeouts > r.TimeoutBound {
			return fmt.Errorf("failover: %d candidacies during failover, bound is %d", r.FailoverTimeouts, r.TimeoutBound)
		}
	}
	if !r.PrefixConsistent {
		return fmt.Errorf("failover: replica ledgers are not prefix-consistent")
	}
	if len(r.ChainErrs) > 0 {
		return fmt.Errorf("failover: %s", strings.Join(r.ChainErrs, "; "))
	}
	if !r.Converged {
		return fmt.Errorf("failover: replicas did not converge (lens=%v commits=%v)", r.LogLens, r.Commits)
	}
	if r.SigFailed > 0 || r.SigVerified == 0 {
		return fmt.Errorf("failover: signed proposals: %d verified, %d failed", r.SigVerified, r.SigFailed)
	}
	if r.UnsignedEntries > 0 {
		return fmt.Errorf("failover: %d replicated entries carry no signature", r.UnsignedEntries)
	}
	return nil
}

// Artifact renders the deterministic merged trace: config, the fault
// campaign as it resolved, the protocol trace, and the outcome. Two
// same-seed runs must produce byte-identical artifacts — this is the
// string the observability gate compares.
func (r *FailoverReport) Artifact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster-failover seed=%d nodes=%d run=%v\n", r.Seed, r.Nodes, r.Run)
	fmt.Fprintf(&b, "--- fault campaign ---\n")
	writeLines(&b, r.harnessTrace)
	writeLines(&b, r.injectTrace)
	fmt.Fprintf(&b, "--- protocol trace ---\n")
	b.WriteString(r.protoTrace)
	fmt.Fprintf(&b, "--- outcome ---\n")
	b.WriteString(r.Summary())
	return b.String()
}

// writeLines writes each record on its own line.
func writeLines[T fmt.Stringer](b *strings.Builder, recs []T) {
	for _, r := range recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
}

// Events reports the simulation events the run fired across all nodes.
func (r *FailoverReport) Events() uint64 { return r.EventsFired }

// Summary renders the outcome block.
func (r *FailoverReport) Summary() string {
	var b strings.Builder
	if r.KillAt > 0 {
		fmt.Fprintf(&b, "leader n%d killed at %.6fs; n%d elected +%v later after %d candidacies\n",
			r.LeaderBefore, r.KillAt.Seconds(), r.LeaderAfter, r.FailoverElapsed, r.FailoverTimeouts)
	}
	if r.PartitionNode >= 0 {
		fmt.Fprintf(&b, "n%d partitioned %.6fs-%.6fs\n", r.PartitionNode, r.PartitionAt.Seconds(), r.HealAt.Seconds())
	}
	for i := range r.LogLens {
		fmt.Fprintf(&b, "n%d: log=%d commit=%d restarts=%d vm=%s\n",
			i, r.LogLens[i], r.Commits[i], r.Restarts[i], r.VMStates[i])
	}
	fmt.Fprintf(&b, "prefix-consistent=%v converged=%v\n", r.PrefixConsistent, r.Converged)
	fmt.Fprintf(&b, "signed proposals: verified=%d failed=%d replicated-signed=%d unsigned=%d\n",
		r.SigVerified, r.SigFailed, r.SignedEntries, r.UnsignedEntries)
	fmt.Fprintf(&b, "fabric: sent=%d delivered=%d dropped=%d (partition=%d in-flight=%d injected=%d) delayed=%d\n",
		r.Fabric.Sent, r.Fabric.Delivered, r.Fabric.Dropped(), r.Fabric.DroppedPartition,
		r.Fabric.DroppedPartitionInFlight, r.Fabric.DroppedInjected, r.Fabric.DelayedInjected)
	fmt.Fprintf(&b, "events fired=%d\n", r.EventsFired)
	return b.String()
}

// String renders the human-facing report (outcome only; Artifact has the
// full trace).
func (r *FailoverReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster failover: %d nodes, %v, seed %d\n", r.Nodes, r.Run, r.Seed)
	b.WriteString(r.Summary())
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "ok: failover bounded, ledger prefix-consistent, cluster reconverged\n")
	}
	return b.String()
}

// RunClusterFailover runs the built-in 3-node leader-kill + follower-
// partition scenario.
func RunClusterFailover(seed uint64) (*FailoverReport, error) {
	m, err := cluster.ParseManifest(ClusterManifestText)
	if err != nil {
		return nil, err
	}
	return RunClusterManifest(m, seed)
}

// clusterNodeConfig is the per-node hardware template for cluster
// experiments: smaller than the Pine A64 (2 cores, 256 MiB) so N-node
// runs stay cheap.
func clusterNodeConfig() machine.Config {
	return machine.Config{
		Cores:  2,
		Freq:   machine.DefaultFreq,
		DRAMMB: 256,
		SPIs:   128, // room for the fault injector's spurious-SPI line
		DRAM:   machine.DefaultDRAM(),
		Costs:  machine.DefaultCosts(machine.DefaultFreq),
	}
}

// manifestNetKind maps manifest fault kinds to injector kinds.
var manifestNetKind = map[string]faults.Kind{
	"partition": faults.NetPartition,
	"heal":      faults.NetHeal,
	"netdrop":   faults.NetDrop,
	"netdelay":  faults.NetDelay,
}

// RunClusterManifest builds the rack a cluster manifest describes, boots
// a full secure-node stack per node, runs the replication service and
// the fault campaign, and reports the failover outcome.
//
// Static-target network faults route through a faults.Injector (the same
// machinery `khsim faults` uses); dynamic targets — "leader",
// "follower", "partitioned" — resolve at fire time against live protocol
// state, which only the harness can see.
func RunClusterManifest(m *cluster.ClusterManifest, seed uint64) (*FailoverReport, error) {
	pcfg := m.Protocol
	pcfg.Seed = seed
	rk := &rack{
		cluster:   machine.ClusterConfig{Nodes: m.Nodes, Node: clusterNodeConfig(), Seed: seed, Link: m.Link},
		plan:      func(int) string { return m.NodePlan },
		replicaVM: m.ReplicaVM,
		run:       m.Run,
		spinChunk: m.SpinChunk,
		protocol:  pcfg,
	}
	if err := rk.build(); err != nil {
		return nil, err
	}
	mc, svc, stacks, engines, replicaVMs := rk.mc, rk.svc, rk.stacks, rk.engines, rk.replicas

	rep := &FailoverReport{
		Seed:          seed,
		Nodes:         m.Nodes,
		Run:           m.Run,
		LeaderBefore:  -1,
		LeaderAfter:   -1,
		PartitionNode: -1,
		FailoverBound: 4 * (pcfg.ElectionMin + pcfg.ElectionJitter),
		TimeoutBound:  uint64(3 * m.Nodes),
	}
	note := func(at sim.Time, node int, format string, args ...any) {
		rep.harnessTrace = append(rep.harnessTrace, cluster.TraceRecord{
			At: at, Node: node, Event: fmt.Sprintf(format, args...),
		})
	}

	// Every payload a node offers the replicated ledger — boot quote,
	// periodic re-attestation, lifecycle transition — is stamped with
	// that node's TEE identity and verified before it leaves the node, so
	// an unsigned (or forged) proposal can never enter the shared log. A
	// proposal the protocol refuses is dropped.
	signedPropose := func(id int, payload []byte) {
		if rec, ok := rk.ids.Stamp(id, payload); ok {
			svc.Propose(id, rec)
		}
	}
	// A lifecycle crash proposal usually drops — the replica VM just
	// died, so the node cannot speak — and the restart record that
	// follows is the evidence that survives.
	rk.proposeLifecycle(func(id int, _ *sim.Engine, rec []byte) { svc.Propose(id, rec) })

	// Proposal load: real attestation evidence, not synthetic counters.
	// Each node's first proposal carries its measured-boot quote; every
	// subsequent one re-attests the node-local lifecycle ledger (length,
	// chain head, replica restart count), so watchdog restarts and
	// snapshot restores show up in the replicated log as soon as the node
	// can speak.
	for i := 0; i < m.Nodes; i++ {
		id, eng, n := i, engines[i], stacks[i]
		booted := false
		var tick func()
		tick = func() {
			if eng.Now() > rk.stopAt {
				return
			}
			if !booted {
				booted = true
				att, err := n.Attestation()
				if err == nil {
					signedPropose(id, []byte(fmt.Sprintf("boot n%d pcr=%x", id, att.PCR[:8])))
				}
			} else {
				head := n.AttestLog.Head()
				signedPropose(id, []byte(fmt.Sprintf("attest n%d ledger=%d head=%x restarts=%d",
					id, n.AttestLog.Len(), head[:8], replicaVMs[id].Restarts())))
			}
			eng.AfterNamed(m.ProposeEvery, "failover.propose", tick)
		}
		// Stagger the first proposal per node so cadences interleave.
		first := m.ProposeEvery + sim.Duration(id)*(m.ProposeEvery/sim.Duration(m.Nodes))
		eng.ScheduleNamed(sim.Time(0).Add(first), "failover.propose", tick)
	}

	// Fault campaign. Static node targets go through the injector (the
	// `khsim faults` path); dynamic ones resolve here at fire time.
	// cluster.ParseManifest has already checked every target against its
	// kind and the node count.
	var rules []faults.Rule
	// resolve maps a crash or partition target to a node at fire time:
	// node<N> is node N, "leader" the sitting leader, and "follower" — or
	// "leader" while none is known — the lowest-numbered live replica that
	// is not the leader (falling back to the last node).
	resolve := func(target string) int {
		if id, ok := net.ParseNodeID(target); ok {
			return int(id)
		}
		if id := svc.LeaderID(); target == "leader" && id >= 0 {
			return id
		}
		for i, vm := range replicaVMs {
			if svc.Replica(i).Role() != cluster.Leader && vm.State() == hafnium.VMRunning {
				return i
			}
		}
		return m.Nodes - 1
	}
	for _, f := range m.Faults {
		f := f
		at := sim.Time(0).Add(f.At)
		_, static := net.ParseNodeID(f.Target)
		if k, ok := manifestNetKind[f.Kind]; ok && static {
			rules = append(rules, faults.Rule{
				Kind: k, Target: f.Target, At: []sim.Time{at},
				Burst: f.Count, Drift: f.Extra, Window: f.Window,
			})
			continue
		}
		switch f.Kind {
		case "crash":
			// Resolve the victim on node 0 at fire time, then hop to it.
			engines[0].ScheduleNamed(at, "failover.resolve-kill", func() {
				victim := resolve(f.Target)
				// The failover bound is only meaningful when the kill
				// deposed the sitting leader.
				if victim == svc.LeaderID() && victim >= 0 {
					rep.LeaderBefore = victim
					rep.KillAt = at
				}
				// Hop onto the victim's engine so the crash (and the
				// watchdog timers it arms) are scheduled in that node's
				// present.
				engines[victim].ScheduleNamed(at, "failover.kill", func() {
					if err := stacks[victim].Hyp.InjectVMFault(replicaVMs[victim].ID(), "injected: cluster kill"); err != nil {
						note(at, victim, "kill failed: %v", err)
						return
					}
					note(at, victim, "killed %s VM (leader kill)", m.ReplicaVM)
				})
			})
		case "partition":
			engines[0].ScheduleNamed(at, "failover.partition", func() {
				victim := resolve(f.Target)
				mc.Fabric.Partition(net.NodeID(victim))
				rep.PartitionNode, rep.PartitionAt = victim, at
				note(at, victim, "partitioned")
			})
		case "heal":
			engines[0].ScheduleNamed(at, "failover.heal", func() {
				for i := 0; i < m.Nodes; i++ {
					if mc.Fabric.Partitioned(net.NodeID(i)) {
						mc.Fabric.Heal(net.NodeID(i))
						rep.HealAt = at
						note(at, i, "healed")
					}
				}
			})
		}
	}
	var in *faults.Injector
	if len(rules) > 0 {
		var err error
		if in, err = rk.inject(rules); err != nil {
			return nil, err
		}
	}

	mc.Run(m.Run)

	// Post-run analysis: the new leader is the first leadership record
	// traced after the kill; candidacies in between are the failover cost.
	for _, t := range svc.Trace() {
		if rep.KillAt > 0 && t.At > rep.KillAt {
			if strings.HasPrefix(t.Event, "election timeout: candidate") && rep.LeaderAfter < 0 {
				rep.FailoverTimeouts++
			}
			if strings.HasPrefix(t.Event, "leader term=") && rep.LeaderAfter < 0 {
				rep.LeaderAfter = t.Node
				rep.ElectedAt = t.At
				rep.FailoverElapsed = sim.Duration(t.At - rep.KillAt)
			}
		}
	}
	// Classify what replicated: every node-originated payload must carry
	// a signature stamp. The raft layer's own leader no-op entries
	// ("leader nX term T") are protocol bookkeeping, not node proposals,
	// and are exempt.
	for _, r := range rk.audit(&rep.LedgerAudit) {
		switch {
		case bytes.HasPrefix(r.Payload, []byte("leader n")):
		case tz.Stamped(r.Payload):
			rep.SignedEntries++
		default:
			rep.UnsignedEntries++
		}
	}
	for _, vm := range replicaVMs {
		rep.Restarts = append(rep.Restarts, vm.Restarts())
		rep.VMStates = append(rep.VMStates, vm.State().String())
	}
	rep.SigVerified, rep.SigFailed = rk.ids.Verified, rk.ids.Failed
	rep.Fabric = mc.Fabric.Stats()
	if in != nil {
		rep.Injected = in.Stats()
		rep.injectTrace = in.Trace()
	}
	rep.EventsFired = mc.Fired()
	rep.protoTrace = svc.TraceString()
	return rep, nil
}
