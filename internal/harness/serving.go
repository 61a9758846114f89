package harness

import (
	"fmt"
	"strings"

	"khsim/internal/core"
	"khsim/internal/serve"
)

// ServingManifestText is the built-in multi-tenant ephemeral-VM serving
// scenario (the same text ships as manifests/serving.manifest): a login
// VM admitting an open-loop job stream into a pool of four environment
// VMs with a two-warm-snapshot budget, swept across four arrival rates.
const ServingManifestText = `
# Multi-tenant ephemeral-VM serving: jobs arrive open-loop, are admitted
# through the super-secondary login VM, and run in pooled secondary
# environment VMs that are prepared once (warm fork or cold boot) and
# reused until a TTL reaper retires them.

[serve]
run_ms = 400
drain_ms = 200
ttl_ms = 50
warm_pool = 2
rates = 50, 500, 2000, 8000
job_short_us = 200
job_long_us = 2000
job_long_frac = 0.05
retry_us = 20

[vm primary]
class = primary
vcpus = 4
memory_mb = 128

[vm login]
class = super-secondary
vcpus = 1
memory_mb = 64

[vm env0]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true

[vm env1]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true

[vm env2]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true

[vm env3]
class = secondary
vcpus = 1
memory_mb = 8
working_set_pages = 64
restart_policy = restart
restart_from_snapshot = true
`

// servingPrimaries are the sweep's primary-kernel dimension: the paper's
// comparison is the lightweight-kernel primary against the Linux one on
// the identical partition plan and job stream.
var servingPrimaries = []struct {
	Name      string
	Scheduler core.Scheduler
}{
	{"kitten", core.SchedulerKitten},
	{"linux", core.SchedulerLinux},
}

// ServingCell is one (primary kernel, arrival rate) run of the sweep.
type ServingCell struct {
	Primary string
	Rate    float64
	Report  serve.Report
}

// ServingReport is the full sweep: every cell, in deterministic order
// (primaries outer, rates inner).
type ServingReport struct {
	Seed  uint64
	Rates []float64
	Cells []ServingCell
}

// Check enforces the sweep's invariants: every cell passes its own
// gates, and — across the whole sweep — both prepare paths ran and the
// warm fork beat the cold boot (the environment-reuse win the serving
// design exists for). Cell-level checks cannot require a cold prepare:
// at low arrival rates the dispatch queue never runs deep enough to
// exhaust the warm budget.
func (r *ServingReport) Check() error {
	if len(r.Cells) == 0 {
		return fmt.Errorf("serving: empty sweep")
	}
	var warmN, coldN int
	var warmSum, coldSum float64
	for _, c := range r.Cells {
		if err := c.Report.Check(); err != nil {
			return fmt.Errorf("serving: cell %s/%g: %w", c.Primary, c.Rate, err)
		}
		s := c.Report.Stats
		warmN += s.WarmPrepares
		coldN += s.ColdPrepares
		warmSum += c.Report.MeanWarmPrepUS * float64(s.WarmPrepares)
		coldSum += c.Report.MeanColdPrepUS * float64(s.ColdPrepares)
	}
	if warmN == 0 || coldN == 0 {
		return fmt.Errorf("serving: sweep exercised only one prepare path (warm=%d cold=%d)", warmN, coldN)
	}
	if warmSum/float64(warmN) >= coldSum/float64(coldN) {
		return fmt.Errorf("serving: no reuse win across the sweep: warm %.1fµs >= cold %.1fµs",
			warmSum/float64(warmN), coldSum/float64(coldN))
	}
	return nil
}

// Artifact renders the deterministic sweep artifact: one stable block
// per cell. Two same-seed sweeps must produce byte-identical artifacts —
// this is the string the observability gate compares.
func (r *ServingReport) Artifact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving sweep seed=%d rates=%v\n", r.Seed, r.Rates)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "--- cell primary=%s rate=%g ---\n", c.Primary, c.Rate)
		b.WriteString(c.Report.Format())
	}
	return b.String()
}

// Events reports the simulation events fired across every cell.
func (r *ServingReport) Events() uint64 {
	var n uint64
	for _, c := range r.Cells {
		n += c.Report.EventsFired
	}
	return n
}

// Summary renders the latency-vs-rate table the experiment exists to
// produce: p50/p99/p999 per rate, one row per (primary, rate) cell.
func (r *ServingReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s %10s\n",
		"primary", "rate", "completed", "p50_us", "p99_us", "p999_us", "replayed")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-8s %10g %10d %10.1f %10.1f %10.1f %10d\n",
			c.Primary, c.Rate, c.Report.Stats.Completed, c.Report.P50, c.Report.P99, c.Report.P999,
			c.Report.Stats.Replayed)
	}
	return b.String()
}

// String renders the human-facing report.
func (r *ServingReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ephemeral-VM serving sweep: seed %d, %d cells\n", r.Seed, len(r.Cells))
	b.WriteString(r.Summary())
	if err := r.Check(); err != nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "ok: all cells flowed end to end, ledgers signed, warm fork beat cold boot\n")
	}
	return b.String()
}

// RunServingSweep runs the built-in serving scenario.
func RunServingSweep(seed uint64) (*ServingReport, error) {
	return RunServingManifest(ServingManifestText, seed)
}

// RunServingManifest sweeps the manifest's arrival rates across both
// primary kernels. Every cell is a fresh whole-stack boot — same seed,
// same manifest, same cell order, byte-identical artifact.
func RunServingManifest(text string, seed uint64) (*ServingReport, error) {
	cfg, err := serve.ParseManifest(text)
	if err != nil {
		return nil, err
	}
	rep := &ServingReport{Seed: seed, Rates: cfg.Rates}
	for _, prim := range servingPrimaries {
		for _, rate := range cfg.Rates {
			cell, err := runServingCell(cfg, prim.Scheduler, rate, seed)
			if err != nil {
				return nil, fmt.Errorf("harness: serving cell %s/%g: %w", prim.Name, rate, err)
			}
			rep.Cells = append(rep.Cells, ServingCell{Primary: prim.Name, Rate: rate, Report: cell})
		}
	}
	return rep, nil
}

// runServingCell boots one node stack and runs the pool at one rate.
func runServingCell(cfg serve.Config, sched core.Scheduler, rate float64, seed uint64) (serve.Report, error) {
	n, err := core.NewSecureNode(core.Options{
		Seed:      seed,
		Manifest:  cfg.NodePlan,
		Scheduler: sched,
	})
	if err != nil {
		return serve.Report{}, err
	}
	p, err := serve.NewPool(n, cfg, seed)
	if err != nil {
		return serve.Report{}, err
	}
	if err := n.Boot(); err != nil {
		return serve.Report{}, err
	}
	if err := p.Start(rate); err != nil {
		return serve.Report{}, err
	}
	n.Run(cfg.Run + cfg.Drain)
	return p.Report(), nil
}
