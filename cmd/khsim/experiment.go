package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"khsim/internal/harness"
	"khsim/internal/sim"
)

// listCmd implements `khsim list`: one registered experiment per line,
// name and description separated by a tab.
func listCmd() {
	for _, e := range harness.Experiments {
		fmt.Printf("%s\t%s\n", e.Name, e.Doc)
	}
}

// experimentCmd runs one registered experiment: it prints the report,
// -artifact writes the byte-comparable artifact (make obscheck runs
// every experiment twice per seed and compares the files), and -check
// exits non-zero unless the experiment's invariants hold. -manifest
// replaces the built-in manifest where the experiment takes one.
func experimentCmd(e harness.Experiment, args []string) {
	fs := flag.NewFlagSet(e.Name, flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same artifact)")
	artifact := fs.String("artifact", "", "write the deterministic experiment artifact to FILE")
	check := fs.Bool("check", false, "exit non-zero unless the experiment's invariants hold")
	var manifestPath string
	if e.Manifest != "" {
		fs.StringVar(&manifestPath, "manifest", "", "manifest file (default: the built-in scenario)")
	}
	var sweep func(seed uint64) bool
	if e.Name == "snapshot" {
		sweep = sweepFlags(fs)
	}
	fs.Parse(args)
	if sweep != nil && sweep(*seed) {
		return
	}

	text := e.Manifest
	if manifestPath != "" {
		b, err := os.ReadFile(manifestPath)
		if err != nil {
			fail(err)
		}
		text = string(b)
	}
	rep, err := e.RunManifest(text, *seed)
	if err != nil {
		fail(err)
	}
	if *artifact != "" {
		if err := os.WriteFile(*artifact, []byte(rep.Artifact()), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Print(rep.String())
	if *check {
		if err := rep.Check(); err != nil {
			fail(err)
		}
	}
}

// sweepFlags registers `khsim snapshot -sweep`, the fork-based
// fault-delay sweep: boot once, fork the warm snapshot per delay cell.
// The returned function runs the sweep if -sweep was given and reports
// whether it did.
func sweepFlags(fs *flag.FlagSet) func(seed uint64) bool {
	sweep := fs.Bool("sweep", false, "run the fork-based fault-delay sweep instead")
	delays := fs.String("delays", "none,0.5ms,1ms,2ms,4ms",
		"comma-separated crash delays for -sweep ('none' = control cell)")
	windowMS := fs.Float64("window-ms", 8, "per-cell window for -sweep, in simulated milliseconds")
	return func(seed uint64) bool {
		if !*sweep {
			return false
		}
		kills, err := sweepDelays(*delays)
		if err != nil {
			fail(err)
		}
		window, err := sim.FromUnit(*windowMS, sim.Millisecond)
		if err != nil {
			fail(fmt.Errorf("-window-ms: %w", err))
		}
		rep, err := harness.RunForkSweep(seed, kills, window)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep.String())
		return true
	}
}

// sweepDelays parses -delays: "none" is the control cell (a negative
// delay, which RunForkSweep reads as no fault), anything else a
// non-negative duration with a unit suffix.
func sweepDelays(list string) ([]sim.Duration, error) {
	var kills []sim.Duration
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "none" {
			kills = append(kills, -1)
			continue
		}
		d, err := sim.ParseDuration(f)
		if err == nil && d < 0 {
			err = fmt.Errorf("negative delay %q", f)
		}
		if err != nil {
			return nil, err
		}
		kills = append(kills, d)
	}
	return kills, nil
}
