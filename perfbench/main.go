// Command perfbench is khsim's benchmark. It drives the simulator's
// stacks through their public constructors and run calls, one process
// and one goroutine, and reports host time (how fast the simulator
// runs) apart from simulated time (what the modelled system does).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// A run repeats full passes ("rounds") of one workload on one seed for
// the given host seconds and reports medians (README.md says which). Every
// round must reproduce the first bit for bit, the first must match the
// harness entry points that compute the same outputs, and both must
// match the values recorded in golden.json when the seed has a record.
// The last line of standard output is one JSON object; the command
// exits non-zero when any check fails. README.md describes the
// workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// defaultSeed is the seed paperbench and EXPERIMENTS.md use.
	defaultSeed = 1
	// heldOutSeed is never used while tuning the simulator; a claimed
	// gain is confirmed on it.
	heldOutSeed = 1009
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// round runs one full pass on b.seed, timing its calls through b.tr.
	round func(b *bench) (*roundResult, error)
	// check compares the first round with the harness entry points that
	// compute the same simulated outputs for the seed; nil when the
	// round calls those entry points itself.
	check func(seed uint64, first *roundResult) error
}

var workloads = []*workloadDef{paperEval, serveSweep, clusterFailover, forkMigrate}

func findWorkload(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// roundResult is what one round produced.
type roundResult struct {
	ops    int      // simulated units run: trials, cells, cluster runs, forks
	failed int      // units whose own check failed
	errs   []string // why they failed
	events uint64   // engine events fired, summed over every stack
	out    bytes.Buffer
	// sim holds simulated values: identical in every round for a seed.
	sim map[string]float64
	// counts holds layer counters read from metrics snapshots, filled
	// only in traced rounds.
	counts map[string]float64
	// data carries what the workload's harness check compares.
	data any
	// notes are lines the run prints from its first round.
	notes []string
}

func newRound() *roundResult {
	return &roundResult{sim: map[string]float64{}, counts: map[string]float64{}}
}

// fail records one failed unit.
func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// digest fingerprints the round's simulated outputs.
func (r *roundResult) digest() string {
	sum := sha256.Sum256(r.out.Bytes())
	return hex.EncodeToString(sum[:])
}

// bench is the state one round runs with.
type bench struct {
	seed uint64
	tr   *tracer // tr.keep: a traced round, which also collects layer counts

	heapBase uint64  // live heap when the round started
	heapMB   float64 // live heap the round's representative setup added
	heapOK   bool
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sampleHeap records, once per round, the live heap the round has added
// at the point the workload calls it: right after setting up its
// representative stack. The forced collection runs outside every timed
// span.
func (b *bench) sampleHeap() {
	if b.heapOK {
		return
	}
	b.heapMB, b.heapOK = (float64(liveHeap())-float64(b.heapBase))/(1<<20), true
}

// hostRound is one round's host-side measurements.
type hostRound struct {
	setup, run time.Duration
	allocMB    float64
	mallocs    uint64
	heapMB     float64
	traced     bool
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-eval, serve-sweep, cluster-failover or fork-migrate")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition listing the metrics")
	record := fs.String("record", "", "golden file to record this run's simulated fingerprint into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("--seconds must be positive"))
	}
	def, err := loadDefinition(*spec)
	if err != nil {
		return fail(err)
	}
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	traced := *trace == 1

	rounds, hosts, layers, tr, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), traced)
	if err != nil {
		return fail(err)
	}
	first := rounds[0]

	// Checks: each round's own unit checks, round-to-round identity, the
	// harness entry points, and the recorded values for the seed.
	attempted, failed := 0, 0
	var problems []string
	for i, r := range rounds {
		attempted += r.ops
		failed += r.failed
		for _, e := range r.errs {
			problems = append(problems, fmt.Sprintf("round %d: %s", i, e))
		}
	}
	runCheck := func(what string, err error) {
		attempted++
		if err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("%s: %v", what, err))
		}
	}
	for i, r := range rounds[1:] {
		var err error
		if r.events != first.events || r.digest() != first.digest() {
			err = fmt.Errorf("round %d simulated %d events (digest %.12s), round 0 %d (%.12s)",
				i+1, r.events, r.digest(), first.events, first.digest())
		}
		runCheck("determinism", err)
	}
	if w.check != nil {
		runCheck("harness", w.check(*seed, first))
	}
	fp := fingerprint{Events: first.events, Digest: first.digest()}
	if rec, ok := golden.lookup(w.name, *seed); ok {
		runCheck("recorded values", rec.compare(fp))
	} else {
		fmt.Fprintf(stdout, "note: no recorded values for %s seed %d; recorded-value check skipped\n", w.name, *seed)
	}
	if *record != "" && failed == 0 {
		if err := recordGolden(*record, w.name, *seed, fp); err != nil {
			return fail(err)
		}
	}

	values := hostMetrics(hosts, tr)
	for k, v := range first.sim {
		values[k] = v
	}
	var list []metricDef
	if traced {
		list = def.PerLayer
		for k, v := range layers {
			values[k] = v
		}
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
		if err := tr.writeChrome(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "spans: %s\n%s", path, tr.formatSelfTimes())
	} else {
		list = def.EndToEnd
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d rounds, %d simulated events per round, digest %.16s\n",
		w.name, *seed, len(rounds), first.events, first.digest())
	for i, h := range hosts {
		fmt.Fprintf(stdout, "round %d: setup %.4fs run %.4fs alloc %.1fMiB traced=%v\n", i, h.setup.Seconds(), h.run.Seconds(), h.allocMB, h.traced)
	}
	for _, n := range first.notes {
		fmt.Fprintln(stdout, n)
	}
	simNames := make([]string, 0, len(first.sim))
	for k := range first.sim {
		simNames = append(simNames, k)
	}
	sort.Strings(simNames)
	for _, k := range simNames {
		fmt.Fprintf(stdout, "simulated %s = %g\n", k, first.sim[k])
	}
	fmt.Fprintf(stdout, "failed_frac = %g (%d of %d operations failed)\n", failedFrac(failed, attempted), failed, attempted)
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAILED %s\n", p)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := values[m.Name]
		note := ""
		if !ok {
			note = "  (not exercised by " + w.name + ")"
		}
		fmt.Fprintf(stdout, "metric %-32s %16.6g %-6s %s is better%s\n", m.Name, v, m.Unit, m.Better, note)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// failedFrac is failed over attempted operations.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// measure runs rounds of w until the host budget is spent. In a traced
// run rounds alternate untraced and traced, so the run also measures
// its own tracing overhead; only traced rounds are CPU-profiled and
// keep spans.
func measure(w *workloadDef, seed uint64, budget time.Duration, traced bool) ([]*roundResult, []hostRound, map[string]float64, *tracer, error) {
	tr := newTracer(false)
	var rounds []*roundResult
	var hosts []hostRound
	var samples []stackSample
	layerCounts := map[string]float64{}
	minRounds := 1
	if traced {
		minRounds = 2
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		profiled := traced && i%2 == 1
		tr.keep = profiled
		tr.resetRound()
		b := &bench{seed: seed, tr: tr, heapBase: liveHeap()}
		var prof bytes.Buffer
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var r *roundResult
		_, err := tr.phase("round", catRound, func() error {
			var err error
			r, err = w.round(b)
			return err
		})
		runtime.ReadMemStats(&m1)
		if profiled {
			pprof.StopCPUProfile()
			s, perr := parseProfile(prof.Bytes())
			if perr != nil {
				return nil, nil, nil, nil, perr
			}
			samples = append(samples, s...)
			for k, v := range r.counts {
				layerCounts[k] += v
			}
		}
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		if i > 0 {
			r.data = nil // only the first round is compared with the harness
		}
		rounds = append(rounds, r)
		hosts = append(hosts, hostRound{
			setup: tr.setup, run: tr.run, traced: profiled,
			allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			mallocs: m1.Mallocs - m0.Mallocs,
			heapMB:  b.heapMB,
		})
	}
	if !traced {
		return rounds, hosts, nil, tr, nil
	}
	return rounds, hosts, layerMetrics(rounds[0], hosts, samples, layerCounts, tr), tr, nil
}

// hostMetrics are the end-to-end host measurements over the untraced
// rounds: setup_s and run_s are the tracer's per-call-median estimates
// of one round, alloc_mb and live_heap_mb medians over rounds.
func hostMetrics(hosts []hostRound, tr *tracer) map[string]float64 {
	var alloc, heap []float64
	for _, h := range hosts {
		if !h.traced {
			alloc = append(alloc, h.allocMB)
			heap = append(heap, h.heapMB)
		}
	}
	return map[string]float64{
		"setup_s":      tr.estimate(catSetup, len(alloc)),
		"run_s":        tr.estimate(catRun, len(alloc)),
		"alloc_mb":     median(alloc),
		"live_heap_mb": median(heap),
	}
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(first *roundResult, hosts []hostRound, samples []stackSample, counts map[string]float64, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	var traced, plain []float64
	var mallocs []float64
	profiledRounds := 0
	for _, h := range hosts {
		if h.traced {
			traced = append(traced, h.run.Seconds())
			profiledRounds++
		} else {
			plain = append(plain, h.run.Seconds())
			mallocs = append(mallocs, float64(h.mallocs))
		}
	}
	out["trace.overhead_s"] = median(traced) - median(plain)
	out["sim.events"] = float64(first.events)
	if first.events > 0 {
		out["sim.ns_per_event"] = median(plain) * 1e9 / float64(first.events)
		out["runtime.allocs_per_event"] = median(mallocs) / float64(first.events)
	}
	// Counters were summed over every profiled round; report per round.
	for k, v := range counts {
		out[k] = v / float64(profiledRounds)
	}
	if h, m := out["mmu.tlb_hits"], out["mmu.tlb_misses"]; h+m > 0 {
		out["mmu.tlb_miss_ratio"] = m / (h + m)
	}
	byLayer := attribute(samples)
	var total int64
	for _, v := range byLayer {
		total += v
	}
	for layer, v := range byLayer {
		if total > 0 {
			out[layer+".self_pct"] = 100 * float64(v) / float64(total)
		}
	}
	if v, ok := out["runtime.gc.self_pct"]; ok {
		out["runtime.gc_pct"] = v
		delete(out, "runtime.gc.self_pct")
	}
	spanMedians := map[string]struct {
		span  string
		scale float64
	}{
		"core.build_ms":       {"build", 1e-6},
		"core.boot_ms":        {"boot", 1e-6},
		"machine.snapshot_us": {"snapshot", 1e-3},
		"machine.fork_us":     {"fork", 1e-3},
		"tz.chain_verify_us":  {"chain-verify", 1e-3},
	}
	for name, s := range spanMedians {
		if d := tr.durations(s.span); len(d) > 0 {
			out[name] = median(d) * s.scale
		}
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, errors.New("benchmark definition lists no metrics")
	}
	return &d, nil
}
