package main

import (
	"fmt"
	"math"
	"strings"

	"khsim/internal/core"
	"khsim/internal/harness"
	"khsim/internal/serve"
	"khsim/internal/stats"
)

// serve-sweep is an open loop in simulated time: seeded exponential
// arrivals at 1000–8000 jobs/s in steps of 1000, under both primaries,
// on the shipped serving plan, with a fresh stack per cell. The run
// phase dominates its host time — engine heap, EL2 hypercall and
// doorbell paths, GIC, kernel dispatch and warm/cold RecycleVM — and it
// uses hafnium the other way from paper-eval: small VMs, reused many
// times. It never touches the cluster or the fabric.
var serveSweep = &workloadDef{name: "serve-sweep", round: serveRound, check: serveCheck}

const (
	// serveWindowMS is the arrival window; drain stays the plan's 200 ms.
	serveWindowMS = 2000
	// serveProbeRate is the rate whose latencies and stages are reported.
	serveProbeRate = 4000
	// serveP99LimitUS is the latency limit of the max-rate rule.
	serveP99LimitUS = 10000
)

var serveRates = []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}

// servePrimaries are the sweep's primary kernels, in harness order.
var servePrimaries = []struct {
	name  string
	sched core.Scheduler
}{{"kitten", core.SchedulerKitten}, {"linux", core.SchedulerLinux}}

// serveManifest is the shipped serving plan with the benchmark's
// arrival window and rates.
func serveManifest(rates []float64) (string, error) {
	text := harness.ServingManifestText
	var rs []string
	for _, r := range rates {
		rs = append(rs, fmt.Sprintf("%g", r))
	}
	for _, sub := range [][2]string{
		{"run_ms = 400", fmt.Sprintf("run_ms = %d", serveWindowMS)},
		{"rates = 50, 500, 2000, 8000", "rates = " + strings.Join(rs, ", ")},
	} {
		if !strings.Contains(text, sub[0]) {
			return "", fmt.Errorf("serving plan has no %q line to override", sub[0])
		}
		text = strings.Replace(text, sub[0], sub[1], 1)
	}
	return text, nil
}

// rateCell is what the max-rate rule reads from one cell.
type rateCell struct {
	rate      float64
	p99US     float64
	generated int
	completed int
}

// maxRate is the highest swept rate whose p99 latency, measured from
// arrival, is within limitUS and whose every generated job completed by
// the end of the drain (0 when none qualifies).
func maxRate(cells []rateCell, limitUS float64) float64 {
	best := 0.0
	for _, c := range cells {
		if c.completed == c.generated && c.generated > 0 && c.p99US <= limitUS && c.rate > best {
			best = c.rate
		}
	}
	return best
}

// serveData is what the harness check compares: the probe-rate cells.
type serveData struct{ probe []harness.ServingCell }

func serveRound(b *bench) (*roundResult, error) {
	text, err := serveManifest(serveRates)
	if err != nil {
		return nil, err
	}
	cfg, err := serve.ParseManifest(text)
	if err != nil {
		return nil, err
	}
	r := newRound()
	data := &serveData{}
	r.data = data
	sweep := harness.ServingReport{Seed: b.seed, Rates: cfg.Rates}
	var warm, cold, retries float64
	for _, prim := range servePrimaries {
		var cells []rateCell
		for _, rate := range cfg.Rates {
			b.tr.unit(fmt.Sprintf("%s/%g", prim.name, rate))
			r.ops++
			var n *core.SecureNode
			var p *serve.Pool
			_, err := b.tr.phase("build", catSetup, func() error {
				var err error
				if n, err = core.NewSecureNode(core.Options{Seed: b.seed, Manifest: cfg.NodePlan, Scheduler: prim.sched}); err != nil {
					return err
				}
				p, err = serve.NewPool(n, cfg, b.seed)
				return err
			})
			if err == nil {
				_, err = b.tr.phase("boot", catSetup, n.Boot)
			}
			if err != nil {
				return nil, fmt.Errorf("cell %s/%g: %w", prim.name, rate, err)
			}
			b.sampleHeap()
			if _, err := b.tr.phase("run", catRun, func() error {
				if err := p.Start(rate); err != nil {
					return err
				}
				n.Run(cfg.Run + cfg.Drain)
				return nil
			}); err != nil {
				return nil, fmt.Errorf("cell %s/%g: %w", prim.name, rate, err)
			}
			var rep serve.Report
			b.tr.phase("report", catRun, func() error { rep = p.Report(); return nil })

			cell := harness.ServingCell{Primary: prim.name, Rate: rate, Report: rep}
			sweep.Cells = append(sweep.Cells, cell)
			if err := rep.Check(); err != nil {
				r.fail("cell %s/%g: %v", prim.name, rate, err)
			}
			r.events += rep.EventsFired
			fmt.Fprintf(&r.out, "--- %s/%g ---\n%s", prim.name, rate, rep.Format())
			st := rep.Stats
			cells = append(cells, rateCell{rate: rate, p99US: rep.P99, generated: st.Generated, completed: st.Completed})
			warm += float64(st.WarmPrepares)
			cold += float64(st.ColdPrepares)
			retries += float64(st.AdmitRetries)
			hs := n.Hyp.Stats()
			r.sim["hafnium.recycles_warm"] += float64(hs.RecyclesWarm)
			r.sim["hafnium.recycles_cold"] += float64(hs.RecyclesCold)
			if b.tr.keep {
				addNodeCounts(r.counts, n.Machine.SnapshotMetrics())
			}
			if rate == serveProbeRate {
				data.probe = append(data.probe, cell)
				r.sim[prim.name+".job_p50_us"] = rep.P50
				r.sim[prim.name+".job_p99_us"] = rep.P99
				for k, v := range stageMetrics(p.Jobs()) {
					r.sim["serve."+prim.name+"."+k] = v
				}
			}
		}
		r.sim[prim.name+".max_rate_jobs_s"] = maxRate(cells, serveP99LimitUS)
		for _, c := range cells {
			r.notes = append(r.notes, fmt.Sprintf("cell %s/%g: jobs=%d completed=%d p99_us=%g (%d completed jobs beyond p99)",
				prim.name, c.rate, c.generated, c.completed, c.p99US, beyondP99(c.completed)))
		}
	}
	r.ops++
	if err := sweep.Check(); err != nil {
		r.fail("sweep: %v", err)
	}
	r.sim["serve.admit_retries"] = retries
	if warm+cold > 0 {
		r.sim["serve.warm_prep_ratio"] = warm / (warm + cold)
	}
	return r, nil
}

// stageMetrics splits completed jobs' latency into stages from the
// pool's timestamps: admit (arrival to the primary's mailbox), queue
// (mailbox to dispatch) and exec (dispatch to completion), each as p50
// and p99 in microseconds.
func stageMetrics(jobs []*serve.Job) map[string]float64 {
	var admit, queue, exec stats.Sample
	for _, j := range jobs {
		if j.DoneAt == 0 {
			continue
		}
		admit.Add(j.AdmitAt.Sub(j.Arrive).Micros())
		queue.Add(j.DispatchAt.Sub(j.AdmitAt).Micros())
		exec.Add(j.DoneAt.Sub(j.DispatchAt).Micros())
	}
	out := map[string]float64{}
	for name, s := range map[string]*stats.Sample{"admit": &admit, "queue": &queue, "exec": &exec} {
		if s.N() == 0 {
			continue
		}
		out[name+"_p50_us"] = s.Percentile(50)
		out[name+"_p99_us"] = s.Percentile(99)
	}
	return out
}

// beyondP99 is how many of n samples lie past the 99th percentile.
func beyondP99(n int) int { return n - int(math.Ceil(0.99*float64(n))) }

// serveCheck reruns the probe-rate cells through the harness's serving
// entry point and requires identical reports.
func serveCheck(seed uint64, first *roundResult) error {
	data := first.data.(*serveData)
	text, err := serveManifest([]float64{serveProbeRate})
	if err != nil {
		return err
	}
	rep, err := harness.RunServingManifest(text, seed)
	if err != nil {
		return err
	}
	if len(rep.Cells) != len(data.probe) {
		return fmt.Errorf("harness ran %d probe cells, benchmark %d", len(rep.Cells), len(data.probe))
	}
	for i, want := range rep.Cells {
		if got := data.probe[i]; got != want {
			return fmt.Errorf("cell %s/%g: benchmark and harness reports differ:\n%s---\n%s",
				want.Primary, want.Rate, got.Report.Format(), want.Report.Format())
		}
		if n := want.Report.Stats.Completed; beyondP99(n) < 10 {
			return fmt.Errorf("cell %s/%g: only %d of %d jobs lie beyond p99", want.Primary, want.Rate, beyondP99(n), n)
		}
	}
	return nil
}
