package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/debug"
	"testing"
)

// TestSummarizeSelfTime: a span's self time is its duration minus its
// children's, and the covered time counts primary lanes only.
func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{Name: "core.step", Start: 0, End: 100, Parent: -1, Lane: 0},
		{Name: "lbm.phase0", Start: 10, End: 40, Parent: 0, Lane: 0},
		{Name: "msg.recv", Start: 50, End: 90, Parent: 0, Lane: 0},
		{Name: "msg.send", Start: 0, End: 30, Parent: -1, Lane: 1},
	}
	s := summarize(spans, nil, []int{0})
	for name, want := range map[string]float64{"core.step": 30, "lbm.phase0": 30, "msg.recv": 40, "msg.send": 30} {
		if got := s.self[name] * 1e9; math.Abs(got-want) > 1e-6 {
			t.Errorf("self(%s) = %g ns, want %g", name, got, want)
		}
	}
	if got := s.covered * 1e9; math.Abs(got-100) > 1e-6 {
		t.Errorf("covered = %g ns, want 100 (lane 1 is not primary)", got)
	}
}

// TestTracerParents: spans nest per lane and keep their parents when
// the lanes are merged.
func TestTracerParents(t *testing.T) {
	tr := newTracer()
	a, b := tr.lane(0, true), tr.lane(1, false)
	outer := a.begin("core.step")
	b.end(b.begin("msg.send"))
	a.end(a.begin("lbm.phase0"))
	a.end(outer)
	spans, _, primary := tr.collect()
	if len(spans) != 3 || len(primary) != 1 || primary[0] != 0 {
		t.Fatalf("spans %+v primary %v", spans, primary)
	}
	if spans[1].Name != "lbm.phase0" || spans[1].Parent != 0 || spans[2].Parent != -1 {
		t.Errorf("parents: %+v", spans)
	}
}

// TestSensitivity is the benchmark's self-check. Busy-work worth 20% of
// every Compute call must make lb2d-flue-hub's solve_s worse by more than
// the bound BENCHMARK.json fixes for it. The same setting must leave
// sched-deep-queue, which runs no kernel, within the bound. A slowed and
// a normal repetition of the same inputs run back to back, and the
// median of the pairs' ratios is compared, so drift of the host cancels
// out. It takes about a minute.
func TestSensitivity(t *testing.T) {
	bound := solveBound(t)
	for _, c := range []struct {
		name    string
		pairs   int
		flagged bool
	}{{"lb2d-flue-hub", 24, true}, {"sched-deep-queue", 10, false}} {
		o := options{workload: c.name, seed: 3, workdir: t.TempDir()}
		b := workloads[c.name](o)
		if err := b.reference(); err != nil {
			t.Fatal(err)
		}
		var ratios []float64
		for i := 0; i < c.pairs; i++ {
			var solve [2]float64
			for k := range solve {
				// Alternate which of the pair runs first.
				slow := k == i%2
				if sw, ok := b.(*simWorkload); ok {
					sw.o.slowCompute = slow
				}
				debug.FreeOSMemory()
				r, err := b.rep(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				if r.failures > 0 {
					t.Fatalf("%s repetition %d failed its check", c.name, i)
				}
				if slow {
					solve[1] = r.solve.Seconds()
				} else {
					solve[0] = r.solve.Seconds()
				}
			}
			ratios = append(ratios, solve[1]/solve[0])
		}
		worse := median(ratios) - 1
		t.Logf("%s: slowed/normal solve_s, median of %d pairs: %+.1f%% (bound %.0f%%)", c.name, c.pairs, 100*worse, 100*bound)
		if flagged := worse > bound; flagged != c.flagged {
			t.Errorf("%s: slowdown %+.1f%% flagged=%v, want %v", c.name, 100*worse, flagged, c.flagged)
		}
	}
}

// solveBound reads solve_s's bound from BENCHMARK.json.
func solveBound(t *testing.T) float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "solve_s" {
			return m.Bound
		}
	}
	t.Fatal("BENCHMARK.json has no solve_s")
	return 0
}
