package main

import (
	"fmt"
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
)

// fork-migrate boots the snapshot stack once, runs a long fork sweep
// that alternates control cells and kill cells, then runs the
// live-migration suite. It is the only workload that exercises
// Machine.Snapshot/Fork and hafnium extract/admit; every other workload
// skips them.
var forkMigrate = &workloadDef{name: "fork-migrate", round: forkRound, check: forkCheck}

const (
	forkCells     = 40000
	forkWindow    = 6 * sim.Millisecond
	forkWarm      = 5 * sim.Millisecond
	forkCheckedN  = 4 // cells compared against harness.RunForkSweep
	migDowntimeWS = 4096
)

// forkKills is the sweep: even cells are controls (no fault), odd cells
// kill the job VM 1–5 ms after the fork.
func forkKills() []sim.Duration {
	kills := make([]sim.Duration, forkCells)
	for i := range kills {
		kills[i] = -1
		if i%2 == 1 {
			kills[i] = sim.Duration(1+(i/2)%5) * sim.Millisecond
		}
	}
	return kills
}

// snapManifest is the harness's snapshot-experiment plan: the standard
// benchmark node with a warm watchdog restart policy on the job VM.
const snapManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 512
working_set_pages = 256
restart_policy = restart
max_restarts = 8
restart_backoff_us = 500
restart_from_snapshot = true
`

// forkData is what the harness check compares.
type forkData struct{ cells []harness.ForkSweepCell }

func forkRound(b *bench) (*roundResult, error) {
	r := newRound()
	data := &forkData{}
	r.data = data

	// One boot, one warm snapshot, one forked timeline per cell — the
	// construction and sweep harness.RunForkSweep performs.
	b.tr.unit("snapshot-stack")
	var n *core.SecureNode
	var spin *noise.Selfish
	_, err := b.tr.phase("build", catSetup, func() error {
		var err error
		n, err = core.NewSecureNode(core.Options{Seed: b.seed, Manifest: snapManifest, Scheduler: core.SchedulerKitten})
		if err != nil {
			return err
		}
		spin = noise.NewSelfish("snapshot", sim.FromSeconds(1)+forkWindow*2)
		spin.ChunkTime = sim.FromMicros(50)
		guest := kitten.NewGuest(kitten.DefaultParams())
		guest.Attach(0, spin)
		if err := n.AttachGuest("job", guest); err != nil {
			return err
		}
		n.Machine.RegisterSnapshotter("proc."+spin.Name(), spin)
		return nil
	})
	if err == nil {
		_, err = b.tr.phase("boot", catSetup, n.Boot)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot stack: %w", err)
	}
	b.sampleHeap()
	vm, ok := n.Hyp.VMByName("job")
	if !ok {
		return nil, fmt.Errorf("snapshot stack has no job VM")
	}
	b.tr.phase("run", catRun, func() error { n.Run(forkWarm); return nil })
	var snap sim.State
	b.tr.phase("snapshot", catRun, func() error { snap = n.Machine.Snapshot(); return nil })
	base := n.Hyp.Stats()
	fired0 := n.Machine.Engine.Fired()
	var injectErr error
	kinds := map[sim.Duration]string{}
	for _, kill := range forkKills() {
		if kinds[kill] == "" {
			kinds[kill] = fmt.Sprintf("kill=%v", kill)
		}
		b.tr.unit(kinds[kill])
		r.ops++
		b.tr.phase("fork", catRun, func() error { n.Machine.Fork(snap); return nil })
		if kill >= 0 {
			n.Machine.Engine.AfterNamed(kill, "sweep.kill", func() {
				if err := n.Hyp.InjectVMFault(vm.ID(), "injected: sweep kill"); err != nil && injectErr == nil {
					injectErr = err
				}
			})
		}
		b.tr.phase("run", catRun, func() error { n.Run(forkWindow); return nil })
		hs := n.Hyp.Stats()
		cell := harness.ForkSweepCell{
			KillAfter: kill,
			Crashes:   hs.Aborts - base.Aborts,
			Restarts:  hs.Restarts - base.Restarts,
			WarmRest:  hs.SnapshotRestores - base.SnapshotRestores,
			Detours:   spin.Result.Count(),
			Fired:     n.Machine.Engine.Fired() - fired0,
		}
		data.cells = append(data.cells, cell)
		r.events += cell.Fired
	}
	if injectErr != nil {
		return nil, fmt.Errorf("sweep injection: %w", injectErr)
	}
	r.events += fired0
	for _, c := range checkForkCells(r, data.cells) {
		fmt.Fprintf(&r.out, "fork %+v\n", c)
	}

	// The live-migration suite fuses construction and run: time an
	// identical construction of its racks, then charge the rest of the
	// call to run_s.
	construct, err := buildMigrationRacks(b)
	if err != nil {
		return nil, err
	}
	b.tr.unit("migration-suite")
	var rep *harness.MigrationReport
	call, err := b.tr.phase("migrate", catFused, func() error {
		var err error
		rep, err = harness.RunMigrationSuite(b.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.tr.fused("migrate", call, construct)
	r.ops += len(rep.Cells)
	if err := rep.Check(); err != nil {
		r.fail("migration suite: %v", err)
	}
	r.out.WriteString(rep.Artifact())
	for _, c := range rep.Cells {
		r.events += c.EventsFired
		if c.WorkingSetPages == migDowntimeWS && !c.Kill {
			r.sim["downtime_ms"] = float64(c.Downtime) / float64(sim.Millisecond)
		}
	}
	return r, nil
}

// checkForkCells holds the sweep to the snapshot contract: forks of one
// snapshot replay identically, so every cell matches the first cell
// with the same kill delay; a kill cell crashes the job and a control
// cell does not. It returns the distinct cells, one per delay, in sweep
// order.
func checkForkCells(r *roundResult, cells []harness.ForkSweepCell) []harness.ForkSweepCell {
	first := map[sim.Duration]harness.ForkSweepCell{}
	var distinct []harness.ForkSweepCell
	for i, c := range cells {
		want, seen := first[c.KillAfter]
		if !seen {
			first[c.KillAfter], want = c, c
			distinct = append(distinct, c)
		}
		switch {
		case c != want:
			r.fail("fork cell %d %+v differs from the first cell with its delay %+v", i, c, want)
		case c.KillAfter < 0 && c.Crashes != 0, c.KillAfter >= 0 && c.Crashes == 0:
			r.fail("fork cell %d (kill after %v) contained %d crashes", i, c.KillAfter, c.Crashes)
		}
	}
	return distinct
}

// migNodeManifest is the harness's per-node plan for the migration
// cells: the job VM runs on node 0 and is a standby slot elsewhere.
func migNodeManifest(node, ws int) string {
	var b strings.Builder
	b.WriteString(`
routing = via-primary
tlb = vmid-tagged

[vm primary]
class = primary
vcpus = 2
memory_mb = 64

[vm attest]
class = secondary
vcpus = 1
memory_mb = 32

[vm job]
class = secondary
vcpus = 1
memory_mb = 16
`)
	fmt.Fprintf(&b, "working_set_pages = %d\n", ws)
	if node != 0 {
		b.WriteString("standby = true\n")
	}
	return b.String()
}

// buildMigrationRacks performs the construction harness.RunMigrationSuite
// performs for each of its cells — three working sets and the kill cell,
// each a fresh 3-node rack — and returns its host time.
func buildMigrationRacks(b *bench) (time.Duration, error) {
	const nodes = 3
	run := sim.FromMicros(120_000)
	var total time.Duration
	for _, ws := range []int{256, 1024, 4096, 1024} {
		b.tr.unit(fmt.Sprintf("migration-rack/ws=%d", ws))
		var mc *machine.Cluster
		d, err := b.tr.phase("build", catSetup, func() error {
			cfg := clusterNodeConfig()
			cfg.Cores = 3
			var err error
			mc, err = machine.NewCluster(machine.ClusterConfig{Nodes: nodes, Node: cfg, Seed: b.seed})
			return err
		})
		total += d
		if err != nil {
			return 0, err
		}
		engines := make([]*sim.Engine, nodes)
		for i := 0; i < nodes; i++ {
			var n *core.SecureNode
			d, err := b.tr.phase("build", catSetup, func() error {
				var err error
				n, err = core.NewSecureNode(core.Options{Node: mc.Nodes[i], Manifest: migNodeManifest(i, ws), Scheduler: core.SchedulerKitten})
				if err != nil {
					return err
				}
				attest := kitten.NewGuest(kitten.DefaultParams())
				attestSpin := noise.NewSelfish(fmt.Sprintf("attest%d", i), run*4)
				attest.Attach(0, attestSpin)
				n.Machine.RegisterSnapshotter("proc."+attestSpin.Name(), attestSpin)
				if err := n.AttachGuest("attest", attest, 1); err != nil {
					return err
				}
				job := kitten.NewGuest(kitten.DefaultParams())
				jobSpin := noise.NewSelfish("job", run*4)
				job.Attach(0, jobSpin)
				n.Machine.RegisterSnapshotter("proc.job", jobSpin)
				return n.AttachGuest("job", job, 2)
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
			engines[i] = n.Machine.Engine
			hafnium.NewMigrator(n.Hyp, 0)
		}
		d, err = b.tr.phase("build", catSetup, func() error {
			_, err := cluster.New(mc.Fabric, engines, cluster.DefaultConfig(b.seed))
			return err
		})
		total += d
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// forkCheck reruns the first cells through harness.RunForkSweep and
// requires identical cells.
func forkCheck(seed uint64, first *roundResult) error {
	data := first.data.(*forkData)
	rep, err := harness.RunForkSweep(seed, forkKills()[:forkCheckedN], forkWindow)
	if err != nil {
		return err
	}
	for i, want := range rep.Cells {
		if got := data.cells[i]; got != want {
			return fmt.Errorf("fork cell %d: benchmark %+v, harness %+v", i, got, want)
		}
	}
	return nil
}
