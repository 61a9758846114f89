package main

import (
	"fmt"
	"math"
	"strings"

	"khsim/internal/core"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/machine"
	"khsim/internal/metrics"
	"khsim/internal/noise"
	"khsim/internal/osapi"
	"khsim/internal/sim"
	"khsim/internal/stats"
	"khsim/internal/workload"
)

// paper-eval is the paper's §V evaluation as paperbench runs it by
// default, one trial after another: selfish-detour (30 s of spin) in the
// three configurations, then HPCG, STREAM, RandomAccess and NAS
// LU/BT/CG/EP/SP × 3 configurations × 10 trials. Each trial builds a
// fresh node with a 512 MiB job VM, so construction dominates its host
// time. It never touches serving, the cluster, the fabric or signing.
var paperEval = &workloadDef{name: "paper-eval", round: paperRound, check: paperCheck}

const (
	paperTrials  = 10
	paperSpinSec = 30
)

// paperManifest is the harness's partition plan for the virtualized
// configurations: a 4-VCPU primary plus one single-VCPU 512 MiB job VM.
const paperManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 512
working_set_pages = 256
`

func paperSpecs() []workload.Spec {
	return []workload.Spec{
		workload.HPCG(), workload.Stream(), workload.GUPS(),
		workload.NASLU(), workload.NASBT(), workload.NASCG(), workload.NASEP(), workload.NASSP(),
	}
}

// paperValues are the paper's Kitten and Linux means for Figs 8 and 10,
// as EXPERIMENTS.md tabulates them, in each spec's reporting units.
var paperValues = map[string][2]float64{
	workload.NameHPCG:   {0.0019, 0.0018},
	workload.NameStream: {59.8, 60.2},
	workload.NameGUPS:   {6.2e-5, 6.04e-5},
	workload.NameLU:     {33.116, 32.06},
	workload.NameBT:     {34.2, 34.142},
	workload.NameCG:     {4.38, 4.37},
	workload.NameEP:     {0.77, 0.77},
	workload.NameSP:     {15.08, 15.1},
}

// paperData is what the harness check compares: each cell's first
// trial and each configuration's selfish-detour result.
type paperData struct {
	firstTrial map[string]workload.Result // key: spec/config
	selfish    map[harness.Config]*noise.SelfishResult
}

func paperRound(b *bench) (*roundResult, error) {
	r := newRound()
	data := &paperData{firstTrial: map[string]workload.Result{}, selfish: map[harness.Config]*noise.SelfishResult{}}
	r.data = data

	runTime := sim.FromSeconds(paperSpinSec)
	for _, cfg := range harness.Configs {
		s := noise.NewSelfish(cfg.String(), runTime)
		horizon := runTime + runTime/2 + sim.FromSeconds(2)
		if err := b.runProcess(r, cfg, b.seed, s, func() bool { return s.Result.Finished }, horizon); err != nil {
			return nil, err
		}
		data.selfish[cfg] = &s.Result
		fmt.Fprintf(&r.out, "selfish %s detours=%d stolen=%v elapsed=%v\n",
			cfg, s.Result.Count(), s.Result.StolenTotal(), s.Result.Elapsed)
		if !s.Result.Finished || s.Result.Count() == 0 {
			r.fail("selfish %s: finished=%v with %d detours", cfg, s.Result.Finished, s.Result.Count())
		}
	}

	stream := sim.NewSeedStream(b.seed)
	var errSum float64
	var errN int
	for _, spec := range paperSpecs() {
		for _, cfg := range harness.Configs {
			var rates stats.Sample
			for t := 0; t < paperTrials; t++ {
				seed := stream.Seed(t)
				env := workload.Env{TwoStage: cfg.TwoStage(), RNG: sim.NewRNG(seed*2654435761 + uint64(cfg))}
				w := workload.New(spec, env)
				est := sim.FromSeconds(spec.TotalOps / spec.NativeRate)
				if err := b.runProcess(r, cfg, seed, w, func() bool { return w.Result.Finished }, est*2+sim.FromSeconds(2)); err != nil {
					return nil, err
				}
				res := w.Result
				fmt.Fprintf(&r.out, "%s %s trial=%d %+v\n", spec.Name, cfg, t, res)
				if t == 0 {
					data.firstTrial[spec.Name+"/"+cfg.String()] = res
				}
				if !(res.Rate > 0) || math.IsInf(res.Rate, 0) {
					r.fail("%s/%s trial %d: rate %g", spec.Name, cfg, t, res.Rate)
				}
				rates.Add(res.Rate)
			}
			if cfg == harness.Native {
				continue
			}
			want := paperValues[spec.Name][cfg-harness.KittenVM]
			errSum += 100 * math.Abs(rates.Mean()-want) / want
			errN++
		}
	}
	r.sim["paper_err_pct"] = errSum / float64(errN)
	return r, nil
}

// runProcess builds the configuration's stack, runs proc to completion
// and charges build, boot and run to their spans — the construction
// harness.RunWorkload and harness.RunSelfish perform, timed call by
// call.
func (b *bench) runProcess(r *roundResult, cfg harness.Config, seed uint64, proc osapi.Process, finished func() bool, horizon sim.Duration) error {
	b.tr.unit(proc.Name() + "/" + cfg.String())
	r.ops++
	var node *machine.Node
	var boot func() error
	var runFn func()
	_, err := b.tr.phase("build", catSetup, func() error {
		switch cfg {
		case harness.Native:
			// NewNativeNode also starts the kernel: native Kitten has no
			// separate boot step.
			n, err := core.NewNativeNode(seed, kitten.Params{})
			if err != nil {
				return err
			}
			node, runFn = n.Machine, func() { n.Run(horizon) }
			registerProc(node, proc)
			_, err = n.Kernel.Spawn(proc.Name(), 0, proc)
			return err
		default:
			sched := core.SchedulerKitten
			if cfg == harness.LinuxVM {
				sched = core.SchedulerLinux
			}
			n, err := core.NewSecureNode(core.Options{Seed: seed, Manifest: paperManifest, Scheduler: sched})
			if err != nil {
				return err
			}
			node = n.Machine
			guest := kitten.NewGuest(kitten.DefaultParams())
			guest.Attach(0, proc)
			registerProc(node, proc)
			if err := n.AttachGuest("job", guest); err != nil {
				return err
			}
			boot, runFn = n.Boot, func() { n.Run(horizon) }
			return nil
		}
	})
	if err == nil && boot != nil {
		_, err = b.tr.phase("boot", catSetup, boot)
	}
	if err != nil {
		return fmt.Errorf("%s on %v: %w", proc.Name(), cfg, err)
	}
	if cfg == harness.KittenVM {
		b.sampleHeap()
	}
	b.tr.phase("run", catRun, func() error { runFn(); return nil })
	r.events += node.Engine.Fired()
	if !finished() {
		return fmt.Errorf("%s did not finish within %v on %v", proc.Name(), horizon, cfg)
	}
	if b.tr.keep {
		addNodeCounts(r.counts, node.SnapshotMetrics())
	}
	return nil
}

// registerProc mirrors the harness: a snapshottable benchmark process
// joins the node's composite snapshot.
func registerProc(node *machine.Node, proc osapi.Process) {
	if s, ok := proc.(sim.Snapshotter); ok {
		node.RegisterSnapshotter("proc."+proc.Name(), s)
	}
}

// addNodeCounts folds one node's metrics snapshot into layer counters.
func addNodeCounts(c map[string]float64, snap *metrics.Snapshot) {
	for _, p := range snap.Counters {
		v := float64(p.Value)
		switch k := p.Key; {
		case k.Subsystem == "el2" && strings.HasPrefix(k.Name, "hypercall."):
			c["hafnium.hypercalls"] += v
		case k.Subsystem == "el2" && k.Name == "world_switches":
			c["hafnium.world_switches"] += v
		case k.Subsystem == "el2" && k.Name == "virq_injections":
			c["hafnium.virq_injections"] += v
		case k.Subsystem == "el2" && k.Name == "stage2_faults":
			c["hafnium.stage2_faults"] += v
		case k.Subsystem == "kernel" && k.Name == "ticks":
			c["kernel.ticks"] += v
		case k.Subsystem == "kernel" && k.Name == "wakeups":
			c["kernel.wakeups"] += v
		case k.Subsystem == "kernel" && k.Name == "commands":
			c["kernel.commands"] += v
		}
	}
	for _, p := range snap.Gauges {
		switch k := p.Key; {
		case k.Subsystem == "gic" && k.Name == "raised":
			c["gic.raised"] += p.Value
		case k.Subsystem == "gic" && k.Name == "acked":
			c["gic.acked"] += p.Value
		case k.Subsystem == "tlb" && k.Name == "misses":
			c["mmu.tlb_misses"] += p.Value
		case k.Subsystem == "tlb" && k.Name == "hits":
			c["mmu.tlb_hits"] += p.Value
		}
	}
}

// paperCheck reruns one trial per cell, and the selfish-detour runs,
// through the harness and requires identical results.
func paperCheck(seed uint64, first *roundResult) error {
	data := first.data.(*paperData)
	stream := sim.NewSeedStream(seed)
	for _, spec := range paperSpecs() {
		for _, cfg := range harness.Configs {
			want, err := harness.RunWorkload(cfg, spec, stream.Seed(0))
			if err != nil {
				return err
			}
			if got := data.firstTrial[spec.Name+"/"+cfg.String()]; got != want {
				return fmt.Errorf("%s/%s trial 0: benchmark %+v, harness %+v", spec.Name, cfg, got, want)
			}
		}
	}
	for _, cfg := range harness.Configs {
		want, err := harness.RunSelfish(cfg, seed, sim.FromSeconds(paperSpinSec))
		if err != nil {
			return err
		}
		got := data.selfish[cfg]
		if got.Count() != want.Count() || got.Elapsed != want.Elapsed || got.StolenTotal() != want.StolenTotal() {
			return fmt.Errorf("selfish %s: benchmark %d detours/%v, harness %d/%v",
				cfg, got.Count(), got.StolenTotal(), want.Count(), want.StolenTotal())
		}
	}
	return nil
}
