package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// traceFile is what a traced run writes: the spans and counters of its
// last traced repetition, with the numbers the summarizer needs to put
// them in proportion.
type traceFile struct {
	Stamp stamp `json:"stamp"`
	// SolveS is the traced repetition's solve time; UntracedSolveS the
	// median solve time of the run's untraced repetitions.
	SolveS         float64            `json:"solve_s"`
	UntracedSolveS float64            `json:"untraced_solve_s"`
	PrimaryLanes   []int              `json:"primary_lanes"`
	Counts         map[string]float64 `json:"counts"`
	Spans          []span             `json:"spans"`
}

// spanSummary is one traced repetition reduced to per-name totals.
type spanSummary struct {
	self  map[string]float64   // seconds of self time by span name
	count map[string]int       // spans by name
	durMs map[string][]float64 // every span's full duration, ms, by name
	// covered is the self time of every span on a primary lane: the part
	// of those goroutines' time some span accounts for.
	covered      float64
	primaryLanes int
	counts       map[string]float64
}

// summarize derives each span's self time — its duration minus the part
// its children cover — and totals it by name.
func summarize(spans []span, counts map[string]float64, primary []int) *spanSummary {
	isPrimary := map[int]bool{}
	for _, id := range primary {
		isPrimary[id] = true
	}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := &spanSummary{
		self:         map[string]float64{},
		count:        map[string]int{},
		durMs:        map[string][]float64{},
		primaryLanes: len(primary),
		counts:       counts,
	}
	for i, s := range spans {
		self := float64(s.End-s.Start-child[i]) / 1e9
		sum.self[s.Name] += self
		sum.count[s.Name]++
		sum.durMs[s.Name] = append(sum.durMs[s.Name], float64(s.End-s.Start)/1e6)
		if isPrimary[s.Lane] {
			sum.covered += self
		}
	}
	return sum
}

// perLayer is one per-layer metric: how it is derived from a traced
// repetition's summary.
type perLayer struct {
	name, unit string
	// of returns the repetition's value; the runner averages it over the
	// traced repetitions.
	of func(s *spanSummary, r *repResult) float64
	// medianOf, when set instead, names a span whose durations the metric
	// is the median of, pooled over every traced repetition.
	medianOf string
}

func selfOf(names ...string) func(*spanSummary, *repResult) float64 {
	return func(s *spanSummary, _ *repResult) float64 {
		v := 0.0
		for _, n := range names {
			v += s.self[n]
		}
		return v
	}
}

func countOf(name string) func(*spanSummary, *repResult) float64 {
	return func(s *spanSummary, _ *repResult) float64 { return float64(s.count[name]) }
}

func counterOf(name string) func(*spanSummary, *repResult) float64 {
	return func(s *spanSummary, _ *repResult) float64 { return s.counts[name] }
}

// meanMsOf is the mean full duration of a span, in ms (0 without spans).
func meanMsOf(name string) func(*spanSummary, *repResult) float64 {
	return func(s *spanSummary, _ *repResult) float64 {
		d := s.durMs[name]
		if len(d) == 0 {
			return 0
		}
		t := 0.0
		for _, v := range d {
			t += v
		}
		return t / float64(len(d))
	}
}

// meanSelfMsOf is the mean self time of a span, in ms.
func meanSelfMsOf(name string) func(*spanSummary, *repResult) float64 {
	return func(s *spanSummary, _ *repResult) float64 {
		if s.count[name] == 0 {
			return 0
		}
		return 1e3 * s.self[name] / float64(s.count[name])
	}
}

func nsPerCell(kernel string) func(*spanSummary, *repResult) float64 {
	return func(s *spanSummary, r *repResult) float64 {
		cells := s.counts[kernel+".cells"]
		if cells == 0 {
			return 0
		}
		t := 0.0
		for ph := 0; ph < 4; ph++ {
			t += s.self[fmt.Sprintf("%s.phase%d", kernel, ph)]
		}
		return 1e9 * t / cells
	}
}

func fromRep(f func(r *repResult) float64) func(*spanSummary, *repResult) float64 {
	return func(_ *spanSummary, r *repResult) float64 { return f(r) }
}

var (
	lbmPhases = []string{"lbm.phase0", "lbm.phase1", "lbm.phase2", "lbm.phase3"}
	fdPhases  = []string{"fd.phase0", "fd.phase1", "fd.phase2"}
)

// coreOps are the farm.Workload calls, by the span the wrapper records.
var coreOps = []string{"start", "suspend", "resume", "snapshot", "migrate", "resize", "restore"}

// perLayerMetrics lists every per-layer metric of BENCHMARK.json, in
// report order. Run-level ones (core.serial_mlups, core.allocs_per_step,
// core.leaked_goroutines, trace.overhead_frac) are added by the runner.
func perLayerMetrics() []perLayer {
	m := []perLayer{
		{name: "lbm.compute_s", unit: "s", of: selfOf(lbmPhases...)},
		{name: "fd.compute_s", unit: "s", of: selfOf(fdPhases...)},
	}
	for _, p := range lbmPhases {
		m = append(m, perLayer{name: p + "_s", unit: "s", of: selfOf(p)})
	}
	for _, p := range fdPhases {
		m = append(m, perLayer{name: p + "_s", unit: "s", of: selfOf(p)})
	}
	m = append(m,
		perLayer{name: "lbm.ns_per_cell", unit: "ns/cell", of: nsPerCell("lbm")},
		perLayer{name: "fd.ns_per_cell", unit: "ns/cell", of: nsPerCell("fd")},
		perLayer{name: "kernel.cells", unit: "count", of: counterOf("kernel.cells")},
		perLayer{name: "kernel.bytes_computed", unit: "B", of: counterOf("kernel.bytes_computed")},
		perLayer{name: "halo.pack_s", unit: "s", of: selfOf("halo.pack")},
		perLayer{name: "halo.unpack_s", unit: "s", of: selfOf("halo.unpack")},
		perLayer{name: "halo.msgs", unit: "count", of: counterOf("halo.msgs")},
		perLayer{name: "halo.bytes", unit: "B", of: counterOf("halo.bytes")},
		perLayer{name: "msg.send_s", unit: "s", of: selfOf("msg.send")},
		perLayer{name: "msg.recv_wait_s", unit: "s", of: selfOf("msg.recv")},
		perLayer{name: "msg.msgs", unit: "count", of: counterOf("msg.msgs")},
		perLayer{name: "msg.bytes", unit: "B", of: counterOf("msg.bytes")},
		perLayer{name: "core.step_self_s", unit: "s", of: selfOf("core.step")},
		perLayer{name: "core.early_msgs", unit: "count", of: counterOf("core.early_msgs")},
	)
	for _, op := range coreOps {
		m = append(m,
			perLayer{name: "core." + op + "_ms", unit: "ms", of: meanMsOf("core." + op)},
			perLayer{name: "core." + op + "_count", unit: "count", of: countOf("core." + op)})
	}
	m = append(m,
		perLayer{name: "core.finish_wait_s", unit: "s", of: selfOf("core.finish")},
		perLayer{name: "core.finish_count", unit: "count", of: countOf("core.finish")},
		perLayer{name: "ckpt.save_ms", unit: "ms", of: meanSelfMsOf("ckpt.save")},
		perLayer{name: "ckpt.save_count", unit: "count", of: countOf("ckpt.save")},
		perLayer{name: "ckpt.bytes", unit: "B", of: fromRep(func(r *repResult) float64 { return r.ckptBytes })},
		perLayer{name: "ckpt.restore_ms", unit: "ms", of: meanSelfMsOf("ckpt.restore")},
		perLayer{name: "ckpt_ms_p50", unit: "ms", medianOf: "ckpt.save"},
		perLayer{name: "migrate_ms_p50", unit: "ms", medianOf: "core.migrate"},
		perLayer{name: "restore_ms", unit: "ms", medianOf: "ckpt.restore"},
		perLayer{name: "sched.self_s", unit: "s", of: selfOf("sched.run", "sched.submit")},
		perLayer{name: "sched.timer_s", unit: "s", of: selfOf("sched.timer")},
		perLayer{name: "sched.timer_calls", unit: "count", of: countOf("sched.timer")},
		perLayer{name: "sched.scenario_s", unit: "s", of: selfOf("sched.scenario", "sched.autoscale")},
		perLayer{name: "sched.placed", unit: "count", of: counterOf("sched.placed")},
		perLayer{name: "sched.backfilled", unit: "count", of: counterOf("sched.backfilled")},
		perLayer{name: "sched.preempted", unit: "count", of: counterOf("sched.preempted")},
		perLayer{name: "sched.migrated", unit: "count", of: counterOf("sched.migrated")},
		perLayer{name: "sched.resized", unit: "count", of: counterOf("sched.resized")},
		perLayer{name: "workload.generate_ms", unit: "ms", of: fromRep(func(r *repResult) float64 { return 1e3 * r.generate.Seconds() })},
		perLayer{name: "trace.unaccounted_frac", unit: "frac", of: func(s *spanSummary, r *repResult) float64 {
			if s.primaryLanes == 0 || r.solve <= 0 {
				return 0
			}
			return 1 - s.covered/(float64(s.primaryLanes)*r.solve.Seconds())
		}},
	)
	return m
}

// summarizeCmd prints the per-name self times of a trace file and the
// trace's unaccounted and overhead fractions.
func summarizeCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: perfbench summarize <trace.json>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	s := summarize(tf.Spans, tf.Counts, tf.PrimaryLanes)
	names := make([]string, 0, len(s.self))
	for n := range s.self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: %d spans, solve %.6f s\n", tf.Stamp.Workload, tf.Stamp.Seed, len(tf.Spans), tf.SolveS)
	fmt.Printf("%-18s %10s %14s\n", "span", "count", "self_s")
	for _, n := range names {
		fmt.Printf("%-18s %10d %14.6f\n", n, s.count[n], s.self[n])
	}
	unacc := 0.0
	if s.primaryLanes > 0 && tf.SolveS > 0 {
		unacc = 1 - s.covered/(float64(s.primaryLanes)*tf.SolveS)
	}
	over := 0.0
	if tf.UntracedSolveS > 0 {
		over = tf.SolveS/tf.UntracedSolveS - 1
	}
	fmt.Printf("trace.unaccounted_frac %.6f\ntrace.overhead_frac %.6f\n", unacc, over)
	return nil
}
