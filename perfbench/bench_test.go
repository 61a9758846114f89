package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"khsim/internal/harness"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestDefinition(t *testing.T) (*definition, []metricDef) {
	t.Helper()
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return def, append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...)
}

func TestMetricNamesValid(t *testing.T) {
	def, all := loadTestDefinition(t)
	seen := map[string]bool{}
	for _, m := range all {
		if !namePattern.MatchString(m.Name) {
			t.Errorf("metric name %q is not valid", m.Name)
		}
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not valid", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	var setup metricDef
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or mis-declared: %+v", setup)
	}
	for _, m := range def.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s bound %g exceeds setup_s's %g", m.Name, m.Bound, setup.Bound)
		}
	}
	// Every end-to-end metric is a host measurement every workload takes.
	host := hostMetrics([]hostRound{{allocMB: 1, heapMB: 1}}, newTracer(false))
	for _, m := range def.EndToEnd {
		if _, ok := host[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not measured on every workload", m.Name)
		}
	}
	var names []string
	for _, w := range def.Workloads {
		if !namePattern.MatchString(w.Name) || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %+v is not valid", w)
		}
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark implements %v", names, have)
	}
}

func TestMaxRateRule(t *testing.T) {
	cell := func(rate, p99 float64, gen, done int) rateCell {
		return rateCell{rate: rate, p99US: p99, generated: gen, completed: done}
	}
	for _, tc := range []struct {
		name  string
		cells []rateCell
		want  float64
	}{
		{"all within the limit", []rateCell{cell(1000, 900, 10, 10), cell(2000, 9999, 20, 20)}, 2000},
		{"p99 exactly at the limit counts", []rateCell{cell(1000, 900, 10, 10), cell(2000, 10000, 20, 20)}, 2000},
		{"p99 over the limit", []rateCell{cell(1000, 900, 10, 10), cell(2000, 10001, 20, 20)}, 1000},
		{"backlog left at the end of drain", []rateCell{cell(1000, 900, 10, 10), cell(2000, 900, 20, 19)}, 1000},
		{"highest qualifying rate, not the first failure", []rateCell{cell(1000, 900, 10, 10), cell(2000, 20000, 20, 20), cell(3000, 900, 30, 30)}, 3000},
		{"nothing qualifies", []rateCell{cell(1000, 20000, 10, 10)}, 0},
		{"no jobs generated", []rateCell{cell(1000, 0, 0, 0)}, 0},
	} {
		if got := maxRate(tc.cells, serveP99LimitUS); got != tc.want {
			t.Errorf("%s: maxRate = %g, want %g", tc.name, got, tc.want)
		}
	}
	if got := beyondP99(8000); got != 80 {
		t.Errorf("beyondP99(8000) = %d, want 80", got)
	}
}

func TestProfileAttribution(t *testing.T) {
	samples := []stackSample{
		{Frames: []string{"crypto/internal/edwards25519.(*Point).ScalarBaseMult", "crypto/ed25519.Sign", "khsim/internal/tz.(*Signer).Sign", "khsim/internal/cluster.(*Replica).propose"}, Count: 5},
		{Frames: []string{"runtime.mapassign_fast64", "khsim/internal/hafnium.(*Hypervisor).buildVM", "khsim/internal/core.NewSecureNode"}, Count: 3},
		{Frames: []string{"khsim/internal/kitten.(*Primary).tick", "khsim/internal/sim.(*Engine).Run"}, Count: 2},
		{Frames: []string{"khsim/internal/linuxos.(*Primary).tick"}, Count: 1},
		{Frames: []string{"khsim/internal/apps/gups.Update"}, Count: 1},
		{Frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, Count: 4},
		{Frames: []string{"runtime.mallocgc", "runtime.gcAssistAlloc", "khsim/internal/mem.(*Buddy).Alloc"}, Count: 2},
		{Frames: []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, Count: 1},
		{Frames: []string{"main.run"}, Count: 1},
	}
	got := attribute(samples)
	want := map[string]int64{"tz": 5, "hafnium": 3, "kernel": 3, "apps": 1, "runtime.gc": 4, "mem": 2, "other": 2}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("layer %s: %d samples, want %d", k, got[k], v)
		}
	}
	out := layerMetrics(newRound(), nil, samples, nil, newTracer(true))
	if out["tz.self_pct"] != 100*5.0/20 || out["runtime.gc_pct"] != 100*4.0/20 {
		t.Errorf("self shares: tz %g, gc %g", out["tz.self_pct"], out["runtime.gc_pct"])
	}
}

//go:noinline
func burn(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found int64
	for _, s := range samples {
		for _, f := range s.Frames {
			if strings.HasSuffix(f, ".burn") {
				found += s.Count
				break
			}
		}
	}
	if found == 0 {
		t.Fatalf("no sample in burn among %d samples", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.phase("round", catRound, func() error {
		tr.phase("build", catSetup, func() error { time.Sleep(2 * time.Millisecond); return nil })
		tr.phase("run", catRun, func() error { time.Sleep(3 * time.Millisecond); return nil })
		return nil
	})
	st := tr.selfTimes()
	round := st["round"]
	if children := st["build"][1] + st["run"][1]; round[1]-round[2] != children {
		t.Errorf("round self %g + children %g != total %g", round[2], children, round[1])
	}
	if tr.setup < 2*time.Millisecond || tr.run < 3*time.Millisecond {
		t.Errorf("charged setup %v run %v", tr.setup, tr.run)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestFailedFracCounting(t *testing.T) {
	if failedFrac(0, 10) != 0 || failedFrac(3, 12) != 0.25 || failedFrac(0, 0) != 1 {
		t.Error("failedFrac arithmetic")
	}
	// A workload whose round fails two of its four units: the run must
	// report them against every attempted operation and exit non-zero.
	fake := &workloadDef{
		name: "fake-failing",
		round: func(b *bench) (*roundResult, error) {
			time.Sleep(5 * time.Millisecond) // longer than the budget: one round
			r := newRound()
			r.ops = 4
			r.fail("unit 1")
			r.fail("unit 3")
			r.out.WriteString("same every round")
			return r, nil
		},
		check: func(uint64, *roundResult) error { return nil },
	}
	workloads = append(workloads, fake)
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var out bytes.Buffer
	code := run([]string{"-workload", fake.name, "-seconds", "0.001", "-benchmark", "../BENCHMARK.json"}, &out, &out)
	if code == 0 {
		t.Fatalf("run exited 0 with failing units:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	// One round: 4 units plus the harness check; no recorded values.
	if res.Correct || res.Attempted != 5 || res.Failed != 2 {
		t.Errorf("result %+v, want correct=false attempted=5 failed=2", res)
	}
}

// TestSeedChangesOutputs shows the identity check can fail: a stack
// built from the held-out seed simulates differently from the default
// seed, so its fingerprint does not match the default seed's record.
func TestSeedChangesOutputs(t *testing.T) {
	fp := func(seed uint64) fingerprint {
		b := &bench{seed: seed, tr: newTracer(false)}
		r := newRound()
		spec := workload.Stream()
		stream := sim.NewSeedStream(seed)
		env := workload.Env{TwoStage: true, RNG: sim.NewRNG(stream.Seed(0)*2654435761 + uint64(harness.KittenVM))}
		w := workload.New(spec, env)
		horizon := sim.FromSeconds(2*spec.TotalOps/spec.NativeRate + 2)
		if err := b.runProcess(r, harness.KittenVM, stream.Seed(0), w, func() bool { return w.Result.Finished }, horizon); err != nil {
			t.Fatal(err)
		}
		r.out.WriteString(w.Result.String())
		return fingerprint{Events: r.events, Digest: r.digest()}
	}
	def, held := fp(defaultSeed), fp(heldOutSeed)
	if def == held {
		t.Fatalf("seeds %d and %d simulated identically: %+v", defaultSeed, heldOutSeed, def)
	}
	if def != fp(defaultSeed) {
		t.Fatal("the same seed simulated differently twice")
	}
	g := goldenFile{"w": {"1": def}}
	rec, ok := g.lookup("w", defaultSeed)
	if !ok || rec.compare(def) != nil {
		t.Fatal("recorded fingerprint does not match its own run")
	}
	if rec.compare(held) == nil {
		t.Fatal("recorded-value check passed a different seed's outputs")
	}
}

// TestGoldenRecordsReproduce reruns the recorded default-seed round of
// the cheapest workload and requires its recorded fingerprint.
func TestGoldenRecordsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cluster-failover round")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := g.lookup(clusterFailover.name, defaultSeed)
	if !ok {
		t.Fatalf("golden.json has no %s seed %d record", clusterFailover.name, defaultSeed)
	}
	r, err := clusterRound(&bench{seed: defaultSeed, tr: newTracer(false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := want.compare(fingerprint{Events: r.events, Digest: r.digest()}); err != nil {
		t.Fatal(err)
	}
}
