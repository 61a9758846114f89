// Command khsim boots a simulated secure node from a Hafnium manifest
// and runs one of the paper's benchmarks inside a secondary VM, printing
// the result and the hypervisor's activity counters.
//
// Usage:
//
//	khsim [-manifest FILE] [-scheduler kitten|linux] [-bench NAME] [-seed S]
//	khsim faults [-manifest FILE] [-seed S] [-spec RULES] [-seconds N] [-contain]
//	khsim cluster [-manifest FILE] [-seed S] [-artifact FILE] [-trace] [-check]
//	khsim metrics [-config native|kitten|linux] [-bench NAME] [-seed S] [-format text|json]
//	khsim trace [-config native|kitten|linux] [-bench NAME] [-seed S] [-format perfetto|tsv] [-out FILE] [-check]
//	khsim snapshot [-seed S] [-artifact FILE] [-check] [-sweep [-delays LIST] [-window-ms N]]
//	khsim migrate [-seed S] [-artifact FILE] [-check]
//	khsim serve [-manifest FILE] [-seed S] [-artifact FILE] [-check]
//
// With no manifest the paper's evaluation partition plan is used. Bench
// names: hpcg, stream, randomaccess, nas-lu, nas-bt, nas-cg, nas-ep,
// nas-sp, selfish.
//
// The faults subcommand runs the deterministic fault-injection campaign
// against a victim VM and prints the injection trace, the hypervisor's
// containment counters, and each VM's fate; -contain instead runs the
// crash-containment experiment (primary noise with vs without faults).
//
// The cluster subcommand runs the multi-node failover experiment: N
// secure-node stacks joined by a simulated fabric, a Raft-lite service
// replicating the hash-chained attestation ledger across them, and a
// manifest-scheduled fault campaign (leader kills, partitions, heals,
// message drops, delay spikes — see manifests/cluster-3node.manifest).
// -artifact writes the deterministic merged trace; -check exits non-zero
// unless failover stayed bounded and the ledgers converged.
//
// The metrics subcommand runs one benchmark and prints the node's full
// metrics snapshot (world switches, hypercalls by function, virtual IRQ
// injections, stage-2 faults, TLB and timer activity, ring doorbells),
// deterministically: same seed, same snapshot, byte for byte. The trace
// subcommand exports the run's event trace as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev), or as TSV.
//
// The snapshot subcommand demonstrates the whole-stack snapshot/fork
// contract: it captures a running stack mid-simulation, forks the
// timeline twice verbatim and once with an injected VM crash, and
// verifies the verbatim forks replay bit-identically while the faulted
// one diverges through the watchdog's warm snapshot restore. -sweep
// instead runs the fork-based sweep: one boot, one warm snapshot, one
// forked timeline per fault-injection delay.
//
// The migrate subcommand runs the live VM migration experiment: a
// three-node cluster moves a running job VM between nodes with pre-copy
// rounds over the fabric, a stop-and-copy handoff and a commit
// handshake, sweeping the VM's working set to measure downtime, plus a
// fault cell that partitions the target mid-transfer and must leave
// exactly one live copy (rolled back at the source), with every
// lifecycle step as a signed record in the replicated attestation
// ledger.
//
// The serve subcommand runs the multi-tenant ephemeral-VM serving sweep:
// an open-loop job stream admitted through the login VM into a pool of
// recycled environment VMs (warm stage-2 fork vs cold rebuild), swept
// across arrival rates under both primary kernels, reporting
// p50/p99/p999 admission-to-completion latency per rate with every pool
// transition signed into the attestation ledger (see
// manifests/serving.manifest).
package main

import (
	"flag"
	"fmt"
	"os"

	"khsim/internal/cluster"
	"khsim/internal/core"
	"khsim/internal/faults"
	"khsim/internal/hafnium"
	"khsim/internal/harness"
	"khsim/internal/kitten"
	"khsim/internal/noise"
	"khsim/internal/osapi"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

const defaultManifest = `
# Paper evaluation plan: a scheduling VM plus one benchmark VM.
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

// faultsManifest is the faults subcommand's default plan: the victim VM
// carries a restart budget so injected crashes exercise the watchdog.
const faultsManifest = `
[vm primary]
class = primary
vcpus = 4
memory_mb = 256

[vm job]
class = secondary
vcpus = 1
memory_mb = 128
restart_policy = restart
max_restarts = 8
restart_backoff_us = 200
`

func fail(err error) {
	fmt.Fprintf(os.Stderr, "khsim: %v\n", err)
	os.Exit(1)
}

// faultsCmd implements `khsim faults`.
func faultsCmd(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "Hafnium manifest file (default: built-in fault-recovery plan)")
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same fault trace)")
	spec := fs.String("spec", "crash:job:200ms,spurious::100ms,tlb::250ms,rogue:job:150ms",
		"fault rules: kind[:target[:mean]],... (kinds: spurious storm drift s2flip tlb crash rogue; "+
			"partition heal netdrop netdelay take node<N> targets and need a cluster run)")
	seconds := fs.Float64("seconds", 2, "simulated run time")
	contain := fs.Bool("contain", false, "run the crash-containment experiment instead")
	fs.Parse(args)

	if *contain {
		r, err := harness.RunFaultContainment(*seed, sim.FromSeconds(*seconds))
		if err != nil {
			fail(err)
		}
		fmt.Print(r)
		return
	}

	manifest := faultsManifest
	if *manifestPath != "" {
		b, err := os.ReadFile(*manifestPath)
		if err != nil {
			fail(err)
		}
		manifest = string(b)
	}
	rules, err := faults.ParseSpec(*spec)
	if err != nil {
		fail(err)
	}
	node, err := core.NewSecureNode(core.Options{
		Seed: *seed, Manifest: manifest, Scheduler: core.SchedulerKitten,
	})
	if err != nil {
		fail(err)
	}
	runTime := sim.FromSeconds(*seconds)
	// Give every secondary a spin payload so faults always have live prey.
	for _, vm := range node.Hyp.VMs() {
		if vm.Class() == hafnium.Primary {
			continue
		}
		guest := kitten.NewGuest(kitten.DefaultParams())
		guest.Attach(0, noise.NewSelfish(vm.Name(), runTime*2))
		if err := node.AttachGuest(vm.Name(), guest); err != nil {
			fail(err)
		}
	}
	if err := node.Boot(); err != nil {
		fail(err)
	}
	in, err := faults.New(node.Machine, node.Hyp, *seed, rules)
	if err != nil {
		fail(err)
	}
	if err := in.Start(node.Machine.Now().Add(runTime)); err != nil {
		fail(err)
	}
	node.Run(runTime)

	fmt.Printf("fault injection: seed=%d spec=%q over %gs\n", *seed, *spec, *seconds)
	for _, rec := range in.Trace() {
		fmt.Println(rec)
	}
	ist := in.Stats()
	fmt.Printf("injected: %d faults\n", ist.Injected)
	st := node.Hyp.Stats()
	fmt.Printf("hypervisor: aborts=%d restarts=%d quarantines=%d scrubbed_pages=%d bad_hypercalls=%d worldswitches=%d\n",
		st.Aborts, st.Restarts, st.Quarantines, st.ScrubbedPages, st.BadHypercalls, st.WorldSwitches)
	for _, vm := range node.Hyp.VMs() {
		if vm.Class() == hafnium.Primary {
			continue
		}
		line := fmt.Sprintf("vm %-8s %-12v restarts=%d cpu=%v", vm.Name(), vm.State(), vm.Restarts(), node.Hyp.CPUTime(vm.ID()))
		if r := vm.CrashReason(); r != "" {
			line += " last_crash=" + r
		}
		fmt.Println(line)
	}
	if err := node.Hyp.VerifyIsolation(); err != nil {
		fail(fmt.Errorf("isolation violated: %w", err))
	}
	fmt.Println("isolation: verified")
}

// clusterCmd implements `khsim cluster`: the multi-node replicated
// attestation failover experiment.
func clusterCmd(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "cluster manifest file (default: built-in 3-node failover scenario)")
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same merged trace)")
	artifact := fs.String("artifact", "", "write the deterministic merged trace artifact to FILE")
	showTrace := fs.Bool("trace", false, "print the full merged trace instead of the summary")
	check := fs.Bool("check", false, "exit non-zero unless the failover properties hold")
	nodes := fs.Int("nodes", 0, "override the manifest's rack size")
	fs.Parse(args)

	text := harness.ClusterManifestText
	if *manifestPath != "" {
		b, err := os.ReadFile(*manifestPath)
		if err != nil {
			fail(err)
		}
		text = string(b)
	}
	m, err := cluster.ParseManifest(text)
	if err != nil {
		fail(err)
	}
	if *nodes < 0 {
		fail(fmt.Errorf("khsim cluster: -nodes must be positive, got %d", *nodes))
	}
	if *nodes > 0 {
		m.Nodes = *nodes
	}
	r, err := harness.RunClusterManifest(m, *seed)
	if err != nil {
		fail(err)
	}
	if *artifact != "" {
		if err := os.WriteFile(*artifact, []byte(r.Artifact()), 0o644); err != nil {
			fail(err)
		}
	}
	if *showTrace {
		fmt.Print(r.Artifact())
	} else {
		fmt.Print(r.String())
	}
	if *check {
		if err := r.Check(); err != nil {
			fail(err)
		}
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "faults":
			faultsCmd(os.Args[2:])
			return
		case "cluster":
			clusterCmd(os.Args[2:])
			return
		case "metrics":
			metricsCmd(os.Args[2:])
			return
		case "trace":
			traceCmd(os.Args[2:])
			return
		case "snapshot":
			snapshotCmd(os.Args[2:])
			return
		case "migrate":
			migrateCmd(os.Args[2:])
			return
		case "serve":
			serveCmd(os.Args[2:])
			return
		}
	}
	manifestPath := flag.String("manifest", "", "Hafnium manifest file (default: built-in evaluation plan)")
	schedName := flag.String("scheduler", "kitten", "primary VM kernel: kitten or linux")
	benchName := flag.String("bench", "randomaccess", "benchmark to run in the job VM")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	manifest := defaultManifest
	if *manifestPath != "" {
		b, err := os.ReadFile(*manifestPath)
		if err != nil {
			fail(err)
		}
		manifest = string(b)
	}
	var sched core.Scheduler
	switch *schedName {
	case "kitten":
		sched = core.SchedulerKitten
	case "linux":
		sched = core.SchedulerLinux
	default:
		fail(fmt.Errorf("unknown scheduler %q", *schedName))
	}

	var proc osapi.Process
	var report func()
	if *benchName == "selfish" {
		s := noise.NewSelfish(*schedName, sim.FromSeconds(10))
		proc = s
		report = func() { fmt.Println(s.Result.Summary()) }
	} else {
		spec, ok := workload.ByName(*benchName)
		if !ok {
			fail(fmt.Errorf("unknown benchmark %q (try -bench hpcg|stream|randomaccess|nas-*|selfish)", *benchName))
		}
		run := workload.New(spec, workload.Env{TwoStage: true, RNG: sim.NewRNG(*seed)})
		proc = run
		report = func() { fmt.Println(run.Result.String()) }
	}

	node, err := core.NewSecureNode(core.Options{
		Seed: *seed, Manifest: manifest, Scheduler: sched,
	})
	if err != nil {
		fail(err)
	}
	guest := kitten.NewGuest(kitten.DefaultParams())
	guest.Attach(0, proc)
	if err := node.AttachGuest("job", guest); err != nil {
		fail(err)
	}
	if err := node.Boot(); err != nil {
		fail(err)
	}
	node.Run(sim.FromSeconds(60))

	fmt.Printf("node: %d cores @ %.3f GHz, scheduler=%s, config=%s\n",
		len(node.Machine.Cores), float64(node.Machine.Freq)/1e9, sched, harness.KittenVM)
	report()
	st := node.Hyp.Stats()
	fmt.Printf("hypervisor: traps=%d worldswitches=%d runs=%d injections=%d kicks=%d\n",
		st.Traps, st.WorldSwitches, st.Runs, st.Injections, st.Kicks)
	for _, vm := range node.Hyp.VMs() {
		if vm.Class() != hafnium.Primary {
			fmt.Printf("vm %-8s cpu time %v (%v)\n", vm.Name(), node.Hyp.CPUTime(vm.ID()), vm.State())
		}
	}
}
