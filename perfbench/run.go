package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one benchmark workload.
type bench interface {
	// reference computes what every repetition must reproduce. It runs
	// once, before the first repetition, outside every timed region.
	reference() error
	// rep sets up and solves once and checks the outputs. tr is nil for
	// an untraced repetition.
	rep(i int, tr *tracer) (*repResult, error)
	// serialMLUPS is the single-goroutine reference's speed, in million
	// node updates per second (0 where no simulation runs).
	serialMLUPS() float64
}

// repResult is one repetition's measurements.
type repResult struct {
	setup, solve time.Duration
	// stepMs are the step latencies: job steps for the simulations, one
	// scenario tick of virtual time for the farm workloads.
	stepMs      []float64
	jobs        int     // jobs driven to completion
	nodeUpdates float64 // lattice node updates in the solve
	steps       int     // job steps in the solve, for allocs per step
	mallocs     uint64  // heap allocations during the solve
	checks      int     // outputs checked
	failures    int     // outputs that failed their check
	generate    time.Duration
	ckptBytes   float64
	peakRSSMB   float64 // the process's peak resident set during the repetition
}

// workloads maps the names of BENCHMARK.json to their constructors.
var workloads = map[string]func(o options) bench{
	"lb2d-flue-hub":    newFlueHub,
	"fd3d-small-tcp":   newSmallTCP,
	"farm-churn":       newFarmChurn,
	"sched-deep-queue": newDeepQueue,
}

// minReps keeps medians meaningful when one repetition is long.
const minReps = 3

// rssReps is how many leading repetitions peak_rss_mb takes its median
// over: memory a repetition leaks then counts the same on a fast host
// as on a slow one, whatever the number of repetitions.
const rssReps = 8

// run repeats the workload for o.seconds and reports its metrics. In a
// traced run, odd repetitions are traced and even ones are not, so the
// tracing overhead is measured against untraced repetitions of the same
// run.
func run(w bench, o options, st stamp) (result, error) {
	if err := w.reference(); err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	var untraced, traced []*repResult
	var sums []*spanSummary
	var last *tracer
	var goroutines []int // at the start of each repetition
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(untraced) >= minReps && (!o.trace || len(traced) >= minReps)
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
		// Start every repetition from the same memory state: collected,
		// returned to the OS, peak resident set reset.
		debug.FreeOSMemory()
		resetPeakRSS()
		goroutines = append(goroutines, runtime.NumGoroutine())
		var tr *tracer
		k := i
		if o.trace {
			// A traced repetition runs the same inputs as the untraced
			// one before it, so their solve times compare.
			k = i / 2
			if i%2 == 1 {
				tr = newTracer()
			}
		}
		r, err := w.rep(k, tr)
		if err != nil {
			return result{}, fmt.Errorf("repetition %d: %w", i, err)
		}
		r.peakRSSMB = peakRSSMB()
		if tr == nil {
			untraced = append(untraced, r)
			continue
		}
		traced = append(traced, r)
		spans, counts, primary := tr.collect()
		sums = append(sums, summarize(spans, counts, primary))
		last = tr
	}

	res := result{Metrics: map[string]metric{}}
	for _, r := range append(append([]*repResult(nil), untraced...), traced...) {
		res.Attempted += r.checks
		res.Failed += r.failures
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("repetitions: %d untraced, %d traced; outputs checked %d, failed %d\n",
		len(untraced), len(traced), res.Attempted, res.Failed)
	fmt.Printf("untraced solve_s: %.4g\n", collect(untraced, func(r *repResult) float64 { return r.solve.Seconds() }))

	if !o.trace {
		for k, v := range endToEnd(untraced) {
			res.Metrics[k] = v
		}
		return res, nil
	}

	solveU := median(collect(untraced, func(r *repResult) float64 { return r.solve.Seconds() }))
	solveT := collect(traced, func(r *repResult) float64 { return r.solve.Seconds() })
	for _, pl := range perLayerMetrics() {
		var v float64
		if pl.medianOf != "" {
			var durs []float64
			for _, s := range sums {
				durs = append(durs, s.durMs[pl.medianOf]...)
			}
			v = median(durs)
		} else {
			for i, s := range sums {
				v += pl.of(s, traced[i])
			}
			v /= float64(len(sums))
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	res.Metrics["core.serial_mlups"] = metric{w.serialMLUPS(), "Mnodes/s"}
	allocs, steps := 0.0, 0
	for _, r := range untraced {
		allocs += float64(r.mallocs)
		steps += r.steps
	}
	perStep := 0.0
	if steps > 0 {
		perStep = allocs / float64(steps)
	}
	res.Metrics["core.allocs_per_step"] = metric{perStep, "allocs/step"}
	n := len(goroutines) - 1
	res.Metrics["core.leaked_goroutines"] = metric{float64(goroutines[n]-goroutines[0]) / float64(n), "count"}
	res.Metrics["trace.overhead_frac"] = metric{median(solveT)/solveU - 1, "frac"}

	spans, counts, primary := last.collect()
	path, err := writeTrace(o.out, st, traceFile{
		SolveS:         solveT[len(solveT)-1],
		UntracedSolveS: solveU,
		PrimaryLanes:   primary,
		Counts:         counts,
		Spans:          spans,
	})
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans of the last traced repetition: %s\n", path)
	return res, nil
}

// endToEnd derives the end-to-end metrics from untraced repetitions.
func endToEnd(reps []*repResult) map[string]metric {
	var steps []float64
	for _, r := range reps {
		steps = append(steps, r.stepMs...)
	}
	m := map[string]metric{
		"setup_s": {median(collect(reps, func(r *repResult) float64 { return r.setup.Seconds() })), "s"},
		"solve_s": {median(collect(reps, func(r *repResult) float64 { return r.solve.Seconds() })), "s"},
		"mlups": {median(collect(reps, func(r *repResult) float64 {
			return r.nodeUpdates / r.solve.Seconds() / 1e6
		})), "Mnodes/s"},
		"jobs_per_s": {median(collect(reps, func(r *repResult) float64 {
			return float64(r.jobs) / r.solve.Seconds()
		})), "1/s"},
		"step_ms_p50": {quantile(steps, 0.5), "ms"},
		"step_ms_p90": {quantile(steps, 0.9), "ms"},
		"peak_rss_mb": {median(collect(reps[:min(len(reps), rssReps)], func(r *repResult) float64 { return r.peakRSSMB })), "MB"},
	}
	fmt.Printf("step samples: %d over %d repetitions\n", len(steps), len(reps))
	return m
}

func collect(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM);
// where that is not possible, peak_rss_mb is the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
