package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span categories. Host time is charged by category: setup_s sums the
// setup spans, run_s the run spans. Fused spans wrap a harness call that
// builds and runs in one go; the workload times an identical
// construction separately and charges the remainder to run_s. Probe
// spans are the benchmark's own work and are charged to neither.
const (
	catRound = "round"
	catSetup = "setup"
	catRun   = "run"
	catFused = "fused"
	catProbe = "probe"
)

// span is one timed call into a layer, made from the benchmark's code.
// Op groups the spans of one simulated unit (a trial, a cell, a fork).
type span struct {
	Name   string
	Cat    string
	Op     int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int // index into tracer.spans; -1 for a root
}

// tracer times the benchmark's calls into the stacks. In traced rounds
// (keep) it records the spans themselves, in memory, until writeChrome.
// In untraced rounds it records each setup and run call's duration under
// its key — category, span name and unit kind — for the end-to-end
// estimates. It always keeps the round's raw setup and run totals.
type tracer struct {
	origin time.Time
	keep   bool
	spans  []span
	open   []int // stack of open span indices (kept spans only)

	op   int
	kind string // the current unit's kind, e.g. "nas-lu/kitten"
	durs map[durKey][]float64

	setup, run time.Duration // this round's raw totals
}

func newTracer(keep bool) *tracer {
	return &tracer{origin: time.Now(), keep: keep, durs: map[durKey][]float64{}}
}

// durKey groups the calls whose durations are comparable samples.
type durKey struct{ cat, name, kind string }

// phase times fn as a span of the given category and charges it.
func (t *tracer) phase(name, cat string, fn func() error) (time.Duration, error) {
	idx := -1
	start := time.Since(t.origin)
	if t.keep {
		parent := -1
		if len(t.open) > 0 {
			parent = t.open[len(t.open)-1]
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Cat: cat, Op: t.op, Start: start, Parent: parent})
		t.open = append(t.open, idx)
	}
	err := fn()
	end := time.Since(t.origin)
	if idx >= 0 {
		t.spans[idx].End = end
		t.open = t.open[:len(t.open)-1]
	}
	d := end - start
	if cat == catSetup || cat == catRun {
		t.charge(cat, name, d)
	}
	return d, err
}

// charge adds d to the round's total for cat and, in an untraced round,
// records it under its key.
func (t *tracer) charge(cat, name string, d time.Duration) {
	if cat == catSetup {
		t.setup += d
	} else {
		t.run += d
	}
	if !t.keep {
		k := durKey{cat, name, t.kind}
		t.durs[k] = append(t.durs[k], d.Seconds())
	}
}

// fused charges a harness call that also rebuilt constructed state: the
// call's duration minus the separately timed identical construction.
func (t *tracer) fused(name string, call, construction time.Duration) {
	t.charge(catRun, name, call-construction)
}

// unit starts a new simulated unit of the given kind. Units of one kind
// do the same work, so their calls are comparable samples.
func (t *tracer) unit(kind string) { t.op++; t.kind = kind }

// resetRound clears the per-round totals.
func (t *tracer) resetRound() { t.setup, t.run = 0, 0 }

// estimate is the host seconds one round spends in cat, robust to
// transient host noise: for every key, the median of its recorded
// durations times how many of them one round makes, summed. Every round
// makes the same calls, so each key holds a whole multiple of rounds
// samples.
func (t *tracer) estimate(cat string, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	var total float64
	for k, d := range t.durs {
		if k.cat == cat {
			total += median(d) * float64(len(d)) / float64(rounds)
		}
	}
	return total
}

// durations returns every kept span duration with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, the count, total duration and self
// duration — total minus the time covered by direct children.
func (t *tracer) selfTimes() map[string][3]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][3]float64{}
	for i, s := range t.spans {
		v := out[s.Name]
		d := s.End - s.Start
		v[0]++
		v[1] += float64(d)
		v[2] += float64(d - child[i])
		out[s.Name] = v
	}
	return out
}

// formatSelfTimes renders selfTimes as a table, heaviest self time first.
func (t *tracer) formatSelfTimes() string {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][2] > st[names[j]][2] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		v := st[n]
		fmt.Fprintf(&b, "%-14s %8.0f %12.3f %12.3f\n", n, v[0], v[1]/1e6, v[2]/1e6)
	}
	return b.String()
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
