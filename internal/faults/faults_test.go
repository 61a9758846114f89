package faults_test

import (
	"reflect"
	"strings"
	"testing"

	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/sim"
)

const faultManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm job]
class = secondary
vcpus = 1
memory_mb = 64
restart_policy = restart
max_restarts = 8
restart_backoff_us = 100
`

// buildSystem boots a Kitten-scheduled secure node with a spin workload in
// the job VM pinned to core 1, plus an injector over the given rules.
func buildSystem(t *testing.T, seed uint64, rules []faults.Rule) (*core.SecureNode, *faults.Injector) {
	t.Helper()
	n, err := core.NewSecureNode(core.Options{
		Seed:      seed,
		Manifest:  faultManifest,
		Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, noise.NewSelfish("victim", sim.FromMicros(20000)))
	if err := n.AttachGuest("job", guest, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	in, err := faults.New(n.Machine, n.Hyp, seed, rules)
	if err != nil {
		t.Fatal(err)
	}
	return n, in
}

// allKindsRules exercises every fault class probabilistically.
func allKindsRules() []faults.Rule {
	ms := func(v float64) sim.Duration { return sim.FromMicros(v * 1000) }
	return []faults.Rule{
		{Kind: faults.SpuriousIRQ, Core: 1, Mean: ms(5)},
		{Kind: faults.IRQStorm, Core: 1, Mean: ms(20), Burst: 4},
		{Kind: faults.TimerDrift, Target: "job", Mean: ms(10)},
		{Kind: faults.Stage2Flip, Target: "job", Mean: ms(20)},
		{Kind: faults.TLBCorrupt, Core: 1, Mean: ms(10)},
		{Kind: faults.VCPUCrash, Target: "job", Mean: ms(15)},
		{Kind: faults.RogueHypercall, Target: "job", Mean: ms(10)},
	}
}

// TestDeterministicReplay is the core reproducibility property: two runs
// with identical seed and rules must produce bit-for-bit identical fault
// traces, injector counters, and hypervisor statistics.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]faults.Record, faults.Stats, interface{}) {
		n, in := buildSystem(t, 12345, allKindsRules())
		horizon := n.Machine.Now().Add(sim.FromMicros(50000))
		if err := in.Start(horizon); err != nil {
			t.Fatal(err)
		}
		n.Run(sim.FromMicros(50000))
		return in.Trace(), in.Stats(), n.Hyp.Stats()
	}
	t1, s1, h1 := run()
	t2, s2, h2 := run()
	if len(t1) == 0 {
		t.Fatal("no faults injected in 50ms with all rules armed")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("traces diverge:\nrun1: %v\nrun2: %v", t1, t2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("injector stats diverge: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("hypervisor stats diverge: %+v vs %+v", h1, h2)
	}
}

// TestSeedChangesSchedule: a different seed must actually change the
// injection schedule (guards against the RNG being ignored).
func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed uint64) []faults.Record {
		n, in := buildSystem(t, seed, allKindsRules())
		if err := in.Start(n.Machine.Now().Add(sim.FromMicros(50000))); err != nil {
			t.Fatal(err)
		}
		n.Run(sim.FromMicros(50000))
		return in.Trace()
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Fatal("seeds 1 and 2 produced identical fault traces")
	}
}

// TestExplicitTimesFire: At-scheduled injections land at exactly the
// requested instants and honor per-kind counters.
func TestExplicitTimesFire(t *testing.T) {
	at := []sim.Time{
		sim.Time(0).Add(sim.FromMicros(1000)),
		sim.Time(0).Add(sim.FromMicros(2000)),
	}
	n, in := buildSystem(t, 7, []faults.Rule{{Kind: faults.SpuriousIRQ, Core: 0, At: at}})
	if err := in.Start(n.Machine.Now().Add(sim.FromMicros(10000))); err != nil {
		t.Fatal(err)
	}
	if err := in.Start(sim.Time(0)); err == nil {
		t.Fatal("double Start accepted")
	}
	n.Run(sim.FromMicros(10000))
	tr := in.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace = %v, want 2 records", tr)
	}
	for i, rec := range tr {
		if rec.At != at[i] || rec.Kind != faults.SpuriousIRQ || rec.Seq != i {
			t.Fatalf("record %d = %+v", i, rec)
		}
		if rec.String() == "" {
			t.Fatal("empty record string")
		}
	}
	st := in.Stats()
	if st.Injected != 2 || st.ByKind[faults.SpuriousIRQ] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCountCapsFirings: Count bounds a probabilistic rule.
func TestCountCapsFirings(t *testing.T) {
	n, in := buildSystem(t, 9, []faults.Rule{
		{Kind: faults.SpuriousIRQ, Core: 0, Mean: sim.FromMicros(100), Count: 3},
	})
	if err := in.Start(n.Machine.Now().Add(sim.FromMicros(50000))); err != nil {
		t.Fatal(err)
	}
	n.Run(sim.FromMicros(50000))
	if got := in.Stats().Injected; got != 3 {
		t.Fatalf("injected %d, want 3", got)
	}
}

// TestRuleValidation: New rejects malformed rules up front.
func TestRuleValidation(t *testing.T) {
	n, err := core.NewSecureNode(core.Options{Seed: 1, Manifest: faultManifest, Scheduler: core.SchedulerKitten})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]faults.Rule{
		{{Kind: faults.Kind(99), Mean: sim.FromMicros(1)}},   // unknown kind
		{{Kind: faults.VCPUCrash}},                           // no schedule
		{{Kind: faults.VCPUCrash, Target: "ghost", Mean: 1}}, // unknown VM
		{{Kind: faults.SpuriousIRQ, Core: 640, Mean: 1}},     // bad core
	}
	for i, rules := range bad {
		if _, err := faults.New(n.Machine, n.Hyp, 1, rules); err == nil {
			t.Errorf("rule set %d accepted", i)
		}
	}
	if _, err := faults.New(n.Machine, n.Hyp, 1, allKindsRules()); err != nil {
		t.Errorf("valid rules rejected: %v", err)
	}
}

// TestParseSpec covers the CLI spec grammar.
func TestParseSpec(t *testing.T) {
	rules, err := faults.ParseSpec("crash:job:200ms, spurious::50us ,rogue:job,tlb::2s,drift:job:100ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("rules = %+v", rules)
	}
	if rules[0].Kind != faults.VCPUCrash || rules[0].Target != "job" || rules[0].Mean != sim.FromMicros(200000) {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Kind != faults.SpuriousIRQ || rules[1].Target != "" || rules[1].Mean != sim.FromMicros(50) {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Mean != sim.FromMicros(1000) { // default mean
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if rules[3].Kind != faults.TLBCorrupt || rules[3].Target != "" || rules[3].Mean != sim.FromSeconds(2) {
		t.Fatalf("rule 3 (target must be cleared for core faults) = %+v", rules[3])
	}
	if rules[4].Mean != sim.FromNanos(100) {
		t.Fatalf("rule 4 = %+v", rules[4])
	}
	for _, spec := range []string{
		"", "wibble", "crash:job:sideways", "crash:job:10", "crash:job:-3ms", "crash:job:0ms",
	} {
		if _, err := faults.ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParseSpecRejectsBadDurations: the mean must parse as a whole,
// finite number that fits the simulated clock. NaNms used to parse to
// a MinInt64 mean and 1xms to 1 ms.
func TestParseSpecRejectsBadDurations(t *testing.T) {
	for _, d := range []string{"NaNms", "infs", "-infus", "1xms", "1e300s", "0s", "-1ms", "1e-9ns", "ms"} {
		if _, err := faults.ParseSpec("crash:job:" + d); err == nil {
			t.Errorf("mean %q accepted", d)
		}
	}
}

// TestKindStrings: every kind round-trips through its name.
func TestKindStrings(t *testing.T) {
	for _, k := range []faults.Kind{
		faults.SpuriousIRQ, faults.IRQStorm, faults.TimerDrift, faults.Stage2Flip,
		faults.TLBCorrupt, faults.VCPUCrash, faults.RogueHypercall,
	} {
		got, err := faults.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("%v does not round-trip: %v %v", k, got, err)
		}
	}
	if _, err := faults.ParseKind("Kind(3)"); err == nil {
		t.Error("synthetic kind name accepted")
	}
	if !strings.Contains(faults.Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

// TestRogueHypercallsAllDenied: every rogue hypercall the injector issues
// must be refused by the hypervisor — none may land.
func TestRogueHypercallsAllDenied(t *testing.T) {
	n, in := buildSystem(t, 3, []faults.Rule{
		{Kind: faults.RogueHypercall, Target: "job", Mean: sim.FromMicros(500)},
	})
	if err := in.Start(n.Machine.Now().Add(sim.FromMicros(20000))); err != nil {
		t.Fatal(err)
	}
	n.Run(sim.FromMicros(20000))
	tr := in.Trace()
	if len(tr) < 5 {
		t.Fatalf("only %d rogue hypercalls in 20ms", len(tr))
	}
	for _, rec := range tr {
		if !strings.Contains(rec.Detail, "denied") {
			t.Fatalf("rogue hypercall not denied: %+v", rec)
		}
	}
	if err := n.Hyp.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAndRecoverUnderInjection: VCPU crashes are contained, the
// watchdog restarts the victim, and isolation holds throughout.
func TestCrashAndRecoverUnderInjection(t *testing.T) {
	n, in := buildSystem(t, 11, []faults.Rule{
		{Kind: faults.VCPUCrash, Target: "job", Mean: sim.FromMicros(5000), Count: 3},
	})
	if err := in.Start(n.Machine.Now().Add(sim.FromMicros(50000))); err != nil {
		t.Fatal(err)
	}
	n.Run(sim.FromMicros(50000))
	st := n.Hyp.Stats()
	if st.Aborts == 0 {
		t.Fatal("no crashes landed")
	}
	if st.Restarts == 0 {
		t.Fatal("watchdog never restarted the victim")
	}
	job, _ := n.Hyp.VMByName("job")
	if job.State().String() == "crashed" && job.Restarts() == 0 {
		t.Fatalf("job crashed and was never restarted: %+v", st)
	}
	if err := n.Hyp.VerifyIsolation(); err != nil {
		t.Fatal(err)
	}
}
