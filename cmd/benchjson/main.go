// Command benchjson measures discrete-event engine throughput on seven
// representative simulator scenarios and records the results as
// machine-readable JSON (BENCH_sim.json at the repo root; `make bench`).
//
// Each scenario is built, warmed up, and then measured over a fixed window
// of simulated time on a single goroutine:
//
//	selfish          native Kitten, chunked selfish-detour spin (50 µs
//	                 chunks): the engine-dominated schedule/fire hot path.
//	stream           STREAM triad in a Kitten secondary VM under a Kitten
//	                 primary: the world-switch + tick + phase mix.
//	fault-storm-4vm  four VMs (primary + three crashing/restarting
//	                 victims) under the deterministic fault injector.
//	cluster-failover, migration, serving
//	                 the registered harness experiments cluster, migrate
//	                 and serve (harness.Experiments), each run once at
//	                 seed 7 and measured end to end (no warmup; the whole
//	                 run including construction is the window; events
//	                 are the Report's event count). The run must pass
//	                 its own Check() — which holds the migration downtime
//	                 budget and the serving warm-before-cold gate, both
//	                 simulated time and so machine-independent.
//	snapshot-fork    the whole-node snapshot/fork hot path: "events" are
//	                 Node.Fork calls (full copy-on-write restores), so
//	                 ns/event reads as ns/fork. The file also carries a
//	                 "snapshot-fork" comparison block pinning fork cost
//	                 against cold stack construction; -check requires
//	                 the cold boot to stay ≥ 100× a fork.
//
// Reported per scenario: ns/event (wall nanoseconds per simulation event,
// best of -reps), events/sec, allocs/event (Go heap allocations per event
// in the measured steady-state window), and the deterministic event count.
//
// Modes:
//
//	-out FILE     run and write FILE, preserving any "baseline" block the
//	              existing FILE carries (the pre-optimization trajectory).
//	-record-baseline LABEL
//	              additionally store this run as the new baseline block.
//	-check FILE   run and compare against FILE's committed scenario
//	              numbers; exit non-zero on a regression. Used by the CI
//	              bench job. Three gates: event counts must match exactly
//	              (machine-independent determinism), allocs/event must not
//	              grow materially, and ns/event must not regress beyond
//	              -tolerance (default 0.15 = 15%) after normalizing the
//	              committed numbers by the ratio of a raw-CPU calibration
//	              loop, so the gate survives CI runners of a different
//	              speed class than the machine that recorded the file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// ScenarioResult is one scenario's measured numbers.
type ScenarioResult struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	Events         uint64  `json:"events"`
	SimSeconds     float64 `json:"sim_seconds"`
}

// ForkResult compares the warm snapshot-fork path against cold stack
// construction: ns and allocs per Node.Fork (a full whole-node restore,
// copy-on-write under the stage-2 tables) versus ns per cold build+boot
// of the same stack. The fork gate requires the speedup to stay ≥
// forkGate×.
type ForkResult struct {
	NsPerFork      float64 `json:"ns_per_fork"`
	AllocsPerFork  float64 `json:"allocs_per_fork"`
	NsPerColdBoot  float64 `json:"ns_per_cold_boot"`
	ColdOverFork   float64 `json:"cold_boot_over_fork"`
	Forks          uint64  `json:"forks"`
	ColdBootsTimed uint64  `json:"cold_boots_timed"`
}

// forkGate is the minimum cold-boot-over-fork ratio -check accepts. A
// fork restores only what the forked timeline touched, so it must stay
// two orders of magnitude cheaper than building and booting the stack.
const forkGate = 100

// Baseline is a pinned historical run kept for trajectory comparison.
type Baseline struct {
	Label     string                    `json:"label"`
	Scenarios map[string]ScenarioResult `json:"scenarios"`
}

// File is the BENCH_sim.json schema.
type File struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Note   string `json:"note"`
	// CalibNsPerOp is the recording machine's raw-CPU calibration number
	// (see calibrate); -check scales committed ns/event by the ratio of
	// the checking machine's calibration to this.
	CalibNsPerOp float64                   `json:"calib_ns_per_op,omitempty"`
	Baseline     *Baseline                 `json:"baseline,omitempty"`
	Fork         *ForkResult               `json:"snapshot-fork,omitempty"`
	Scenarios    map[string]ScenarioResult `json:"scenarios"`
}

// calibOps is the iteration count of the calibration loop (~100 ms).
const calibOps = 1 << 27

var calibSink uint64

// calibrate measures raw single-core integer throughput with a xorshift
// loop that involves no simulator code at all. Because it is independent
// of the engine, a genuine engine regression cannot hide behind it; it
// only absorbs whole-machine speed differences between the recording and
// checking hosts.
func calibrate() float64 {
	best := math.MaxFloat64
	for r := 0; r < 3; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		t0 := time.Now()
		for i := 0; i < calibOps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if ns := float64(time.Since(t0).Nanoseconds()) / calibOps; ns < best {
			best = ns
		}
	}
	return best
}

// measure is one measured window.
type measure struct {
	events uint64
	allocs uint64
	wall   time.Duration
	simDur sim.Duration
}

func (m measure) result() ScenarioResult {
	r := ScenarioResult{Events: m.events, SimSeconds: m.simDur.Seconds()}
	if m.events > 0 {
		r.NsPerEvent = float64(m.wall.Nanoseconds()) / float64(m.events)
		r.AllocsPerEvent = float64(m.allocs) / float64(m.events)
	}
	if s := m.wall.Seconds(); s > 0 {
		r.EventsPerSec = float64(m.events) / s
	}
	return r
}

// measureWindow advances the engine-driving run function by measureDur of
// simulated time, recording wall time, fired events and heap allocations.
func measureWindow(eng *sim.Engine, run func(d sim.Duration), measureDur sim.Duration) measure {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := eng.Fired()
	t0 := time.Now()
	run(measureDur)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return measure{
		events: eng.Fired() - f0,
		allocs: m1.Mallocs - m0.Mallocs,
		wall:   wall,
		simDur: measureDur,
	}
}

// selfishScenario: native Kitten with a chunked selfish-detour spin. Each
// 50 µs chunk is one schedule+fire round trip, so the engine hot path
// dominates; the 1 s warmup takes the event pool and result buffers to
// steady state before the window opens.
func selfishScenario() (measure, error) {
	n, err := core.NewNativeNode(7, kitten.Params{})
	if err != nil {
		return measure{}, err
	}
	s := noise.NewSelfish("bench", sim.FromSeconds(30))
	s.ChunkTime = sim.FromMicros(50)
	if _, err := n.Kernel.Spawn(s.Name(), 0, s); err != nil {
		return measure{}, err
	}
	n.Run(sim.FromSeconds(1)) // warmup
	return measureWindow(n.Machine.Engine, n.Run, sim.FromSeconds(8)), nil
}

// streamScenario: the STREAM triad model inside a Kitten secondary VM
// under a Kitten primary — ticks, world switches and sub-millisecond
// workload phases. PhaseOps is shrunk to 0.5 ms phases so the measured
// window holds thousands of phase events, and TotalOps is oversized so
// the workload cannot finish inside the window.
func streamScenario() (measure, error) {
	spec := workload.Stream()
	spec.PhaseOps = spec.NativeRate * 0.0005
	spec.TotalOps = spec.NativeRate * 60
	run := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(11)})
	n, err := core.NewSecureNode(core.Options{
		Seed: 7, Manifest: harness.EvaluationManifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return measure{}, err
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, run)
	if err := n.AttachGuest("job", guest); err != nil {
		return measure{}, err
	}
	if err := n.Boot(); err != nil {
		return measure{}, err
	}
	n.Run(sim.FromSeconds(1)) // warmup
	return measureWindow(n.Machine.Engine, n.Run, sim.FromSeconds(8)), nil
}

const stormManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm victim1]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 64
restart_backoff_us = 200

[vm victim2]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 64
restart_backoff_us = 200

[vm victim3]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 64
restart_backoff_us = 200
`

// stormScenario: a 4-VM node (primary + three spinning victims) with the
// deterministic fault injector crashing, storming and corrupting the
// victims — the crash-containment machinery as an engine workload.
func stormScenario() (measure, error) {
	n, err := core.NewSecureNode(core.Options{
		Seed: 7, Manifest: stormManifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		return measure{}, err
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("victim%d", i)
		guest := kitten.NewGuest(kitten.DefaultParams())
		guest.Attach(0, noise.NewSelfish(name, sim.FromSeconds(60)))
		if err := n.AttachGuest(name, guest, i); err != nil {
			return measure{}, err
		}
	}
	if err := n.Boot(); err != nil {
		return measure{}, err
	}
	horizon := sim.FromSeconds(10)
	var rules []faults.Rule
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("victim%d", i)
		rules = append(rules,
			faults.Rule{Kind: faults.VCPUCrash, Target: name, Mean: sim.FromSeconds(0.5)},
			faults.Rule{Kind: faults.SpuriousIRQ, Core: i, Mean: sim.FromSeconds(0.05)},
			faults.Rule{Kind: faults.IRQStorm, Core: i, Mean: sim.FromSeconds(0.2), Burst: 4},
			faults.Rule{Kind: faults.TLBCorrupt, Core: i, Mean: sim.FromSeconds(0.25)},
			faults.Rule{Kind: faults.RogueHypercall, Target: name, Mean: sim.FromSeconds(0.25)},
		)
	}
	in, err := faults.New(n.Machine, n.Hyp, 7, rules)
	if err != nil {
		return measure{}, err
	}
	if err := in.Start(n.Machine.Now().Add(horizon)); err != nil {
		return measure{}, err
	}
	n.Run(sim.FromSeconds(1)) // warmup
	return measureWindow(n.Machine.Engine, n.Run, sim.FromSeconds(6)), nil
}

// experimentScenario measures the registered harness experiment name
// end to end at seed 7: construction included, the Report's event count
// as the denominator — and, since every experiment is deterministic, as
// a cross-node determinism gate: any drift in the schedule changes it.
// The run must also pass its own Check().
func experimentScenario(name string) func() (measure, error) {
	return func() (measure, error) {
		e, ok := harness.Lookup(name)
		if !ok {
			return measure{}, fmt.Errorf("no registered experiment %q", name)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rep, err := e.Run(7)
		if err != nil {
			return measure{}, err
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err := rep.Check(); err != nil {
			return measure{}, err
		}
		return measure{events: rep.Events(), allocs: m1.Mallocs - m0.Mallocs, wall: wall}, nil
	}
}

// forkBlock accumulates the best fork and cold-boot numbers across reps
// for the File's snapshot-fork comparison block.
var forkBlock *ForkResult

// forkScenario: the snapshot/fork hot path. Cold-boots the harness
// snapshot stack a few times (the baseline), warms the survivor to a snapshot point, then
// repeatedly forks the timeline and runs a short divergence window —
// timing and alloc-counting only the Fork calls, which are full
// whole-node restores with copy-on-write stage-2 sharing. Reported as a
// pseudo-scenario: "events" are forks, ns/event is ns/fork.
func forkScenario() (measure, error) {
	const (
		forks    = 256
		coldReps = 4
	)
	coldBest := time.Duration(math.MaxInt64)
	var n *core.SecureNode
	for i := 0; i < coldReps; i++ {
		t0 := time.Now()
		st, err := harness.BuildSnapshotStack(7, sim.FromSeconds(30))
		if err != nil {
			return measure{}, err
		}
		coldBest = min(coldBest, time.Since(t0))
		n = st.Node
	}
	n.Run(sim.FromSeconds(0.005)) // warm to the fork point
	snap := n.Machine.Snapshot()
	runtime.GC()
	var m0, m1 runtime.MemStats
	var wall time.Duration
	var mallocs uint64
	for i := 0; i < forks; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n.Machine.Fork(snap)
		wall += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		// Dirty the timeline so the next fork rewinds real work.
		n.Run(sim.FromMicros(100))
	}
	fb := &ForkResult{
		NsPerFork:      float64(wall.Nanoseconds()) / forks,
		AllocsPerFork:  float64(mallocs) / forks,
		NsPerColdBoot:  float64(coldBest.Nanoseconds()),
		Forks:          forks,
		ColdBootsTimed: coldReps,
	}
	if forkBlock != nil {
		fb.NsPerFork = math.Min(fb.NsPerFork, forkBlock.NsPerFork)
		fb.AllocsPerFork = math.Min(fb.AllocsPerFork, forkBlock.AllocsPerFork)
		fb.NsPerColdBoot = math.Min(fb.NsPerColdBoot, forkBlock.NsPerColdBoot)
	}
	fb.ColdOverFork = fb.NsPerColdBoot / fb.NsPerFork
	forkBlock = fb
	return measure{events: forks, allocs: mallocs, wall: wall}, nil
}

var scenarios = []struct {
	name string
	run  func() (measure, error)
}{
	{"selfish", selfishScenario},
	{"stream", streamScenario},
	{"fault-storm-4vm", stormScenario},
	{"cluster-failover", experimentScenario("cluster")},
	{"snapshot-fork", forkScenario},
	{"migration", experimentScenario("migrate")},
	{"serving", experimentScenario("serve")},
}

// runAll measures every scenario reps times. Recording (median=true)
// keeps the median ns/event rep — a representative number with headroom
// against lucky minima — while checking keeps the best rep, so one noisy
// rep on a busy machine cannot fail the gate.
func runAll(reps int, median bool) (map[string]ScenarioResult, error) {
	out := make(map[string]ScenarioResult)
	for _, sc := range scenarios {
		runs := make([]ScenarioResult, 0, reps)
		for r := 0; r < reps; r++ {
			m, err := sc.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
			runs = append(runs, m.result())
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerEvent < runs[j].NsPerEvent })
		pick := runs[0]
		if median {
			pick = runs[len(runs)/2]
		}
		fmt.Printf("%-16s %9.1f ns/event %12.0f events/s %8.4f allocs/event (%d events, %.1fs sim)\n",
			sc.name, pick.NsPerEvent, pick.EventsPerSec, pick.AllocsPerEvent, pick.Events, pick.SimSeconds)
		out[sc.name] = pick
	}
	return out, nil
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	out := flag.String("out", "", "write results to this JSON file (preserving its baseline block)")
	check := flag.String("check", "", "compare ns/event against this committed JSON file")
	recordBaseline := flag.String("record-baseline", "", "also pin this run as the baseline block, with the given label")
	reps := flag.Int("reps", 3, "repetitions per scenario (best ns/event wins)")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/event regression for -check")
	flag.Parse()

	results, err := runAll(*reps, *check == "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *check != "" {
		ref, err := readFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		// Normalize committed wall-clock numbers to this machine's speed.
		// The scale is clamped: a wildly different ratio means the
		// calibration is not comparable and the raw numbers are the best
		// reference available.
		// Only loosen, never tighten: calibration jitter on the recording
		// machine must not manufacture failures there.
		scale := 1.0
		if ref.CalibNsPerOp > 0 {
			scale = calibrate() / ref.CalibNsPerOp
			if scale < 1 {
				scale = 1
			}
			if scale > 4 {
				scale = 4
			}
		}
		failed := false
		for name, want := range ref.Scenarios {
			got, ok := results[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: scenario %q in %s no longer exists\n", name, *check)
				failed = true
				continue
			}
			// Event counts are deterministic: any drift means the
			// simulation itself changed, not just its speed.
			if got.Events != want.Events {
				fmt.Fprintf(os.Stderr, "benchjson: DETERMINISM %s: %d events, committed %d\n",
					name, got.Events, want.Events)
				failed = true
			}
			// Allocation behavior is near machine-independent; slack
			// covers GC-timing jitter in amortized slice growth only.
			if allocLimit := want.AllocsPerEvent*1.25 + 0.5; got.AllocsPerEvent > allocLimit {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.4f allocs/event > %.4f (committed %.4f)\n",
					name, got.AllocsPerEvent, allocLimit, want.AllocsPerEvent)
				failed = true
			}
			limit := want.NsPerEvent * scale * (1 + *tolerance)
			if got.NsPerEvent > limit {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.1f ns/event > %.1f (committed %.1f, speed scale %.2f, +%.0f%%)\n",
					name, got.NsPerEvent, limit, want.NsPerEvent, scale, 100**tolerance)
				failed = true
			} else {
				fmt.Printf("check %-16s ok: %.1f ns/event vs committed %.1f (limit %.1f)\n",
					name, got.NsPerEvent, want.NsPerEvent, limit)
			}
		}
		if ref.Fork != nil {
			if forkBlock == nil {
				fmt.Fprintln(os.Stderr, "benchjson: snapshot-fork block committed but no fork measurement ran")
				failed = true
			} else if forkBlock.ColdOverFork < forkGate {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION snapshot-fork: cold boot is only %.1f× a fork (%.1f µs vs %.1f µs), gate is %d×\n",
					forkBlock.ColdOverFork, forkBlock.NsPerColdBoot/1e3, forkBlock.NsPerFork/1e3, forkGate)
				failed = true
			} else {
				fmt.Printf("check snapshot-fork    ok: fork %.1f µs vs cold boot %.1f µs (%.0f×, gate %d×)\n",
					forkBlock.NsPerFork/1e3, forkBlock.NsPerColdBoot/1e3, forkBlock.ColdOverFork, forkGate)
			}
		}
		if failed {
			os.Exit(1)
		}
	}

	if *out != "" {
		f := &File{
			Schema:       "khsim-bench/1",
			Go:           runtime.Version(),
			Note:         "wall-clock throughput of the internal/sim discrete-event engine; see EXPERIMENTS.md",
			CalibNsPerOp: calibrate(),
			Fork:         forkBlock,
			Scenarios:    results,
		}
		if prev, err := readFile(*out); err == nil {
			f.Baseline = prev.Baseline
		}
		if *recordBaseline != "" {
			f.Baseline = &Baseline{Label: *recordBaseline, Scenarios: results}
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
}
