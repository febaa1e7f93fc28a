package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/farm"
	"repro/farm/workload"
	"repro/internal/cluster"
)

// deepQueuePins are the SHA-256 digests of the Summary JSON and event
// stream of sched-deep-queue's instances: instance k is the spec
// generated, and the farm seeded, with seed k+1. A run replays them in
// an order its seed shuffles, and every repetition must reproduce its
// instance's pin.
var deepQueuePins = [...]string{
	"cb8517d7b4057eb42d84feb5d962953cd04317e396f48f3afd62c775327e1d17",
	"34c37a947e2faf17b8990a3554aa22b93c8f4f77854bd0a5efe5b6168e57b239",
	"357b325b2fff28fc1365cbce51e64268b2414363415c5c6259c67cb1027b2ecb",
	"718c8afd1dcab4aa74c63e9dad57e9abb6019b19d2b51fbbd1b7114657fe5323",
	"c5f828385627e2e9a25965c6588fef9f90fcf1670e619d787be5e1b512fe7c47",
	"96005cefc774af3c638b09d74912c645c52ab8ded756b68cf19948ce4f279e97",
	"a962739812c449dead3395b7106bc5340c99bd1bd6d7e0e16c52ab98a3e96386",
	"1baa89ba8c7fd9da749bb33a853ff2efa3ff739a700969d2b42ffb87276b36fb",
	"50492227c8bb7df16660763e06ab4106e695475ee9d3a5857e39e94524c1edad",
	"e84a95b996a649bcc33e4cf55a6ef664538144d0561a9345e02661954c4ed30d",
	"045ffb44f91ecacb53c8f97feaa0ffe7766a7450b19804a6d0152650c6557825",
	"6de7fcd7c0cf12718d652b6019ae144d67344f477ff2ba994dfcef28afbe28a2",
	"aaa6f2656812c5729e6a155950df0df7dca56dd63bca4700649620d5cb83a25c",
	"0de42f321b0af1745ade2e72b327dcf83ed407c20e5eefac9204c9764dad3eb1",
	"097d80442333e80400a6780871da4357612d25586942b8eae64db64fb402f6d0",
	"d6d4a9d8fbe414fd1cb765aef07ab3d32958ae08af34223727ea1173924c39aa",
}

// deepQueue is sched-deep-queue: 504 generated NullWorkload jobs on a
// synthetic 100-host pool, FIFO with EASY backfill, under a reclaim
// storm. No simulation runs; the queue stays hundreds deep, so every
// scheduling round scans it for backfill candidates.
type deepQueue struct {
	spec  *workload.Spec
	order []int // instance of each repetition, modulo len(deepQueuePins)
}

func newDeepQueue(o options) bench {
	order := make([]int, len(deepQueuePins))
	for i := range order {
		order[i] = i
	}
	rng := farm.NewRNG(o.seed)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return &deepQueue{spec: deepQueueSpec(), order: order}
}

// deepQueueSpec is nine tenants of 56 jobs each, one job shape per
// tenant, arriving faster than the pool drains them. The seed draws
// arrival times and step counts; fixing each tenant's shape and size
// keeps the total work nearly the same on every seed.
func deepQueueSpec() *workload.Spec {
	cohort := func(method string, jx, jy, jz, side int) workload.Cohort {
		return workload.Cohort{
			Name:     fmt.Sprintf("%s-%dx%dx%d", method, jx, jy, jz),
			Weight:   1,
			Arrivals: workload.Arrivals{Process: workload.Gamma, Shape: 100, MeanGap: 45 * time.Second},
			Jobs: workload.JobDist{
				Shapes:  []workload.ShapeChoice{{Method: method, JX: jx, JY: jy, JZ: jz}},
				SideMin: side,
				Steps:   workload.StepsDist{Median: 4000, Sigma: 0.05},
			},
			MaxJobs: 56,
		}
	}
	return &workload.Spec{
		Name:    "deep-queue",
		Horizon: 1000 * time.Hour,
		Cohorts: []workload.Cohort{
			cohort("lb2d", 4, 2, 0, 42),
			cohort("lb2d", 2, 2, 0, 42),
			cohort("fd2d", 3, 3, 0, 42),
			cohort("lb3d", 2, 2, 2, 12),
			cohort("fd3d", 2, 2, 1, 12),
			cohort("lb2d", 4, 4, 0, 31),
			cohort("fd2d", 6, 2, 0, 31),
			cohort("lb2d", 1, 1, 0, 62),
			cohort("fd2d", 2, 1, 0, 62),
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{{
				Kind: workload.ReclaimStorm, At: 10 * time.Minute, Until: 200 * time.Hour,
				Every: 20 * time.Minute, Hosts: 2, Dwell: 15 * time.Minute,
			}},
		},
	}
}

// syntheticPool is 100 workstations in the paper pool's proportions
// (64 715/50s, 24 720s, 12 710s), idle for half an hour.
func syntheticPool() *cluster.Cluster {
	c := &cluster.Cluster{}
	add := func(prefix string, n int, m cluster.Model) {
		for i := 0; i < n; i++ {
			c.Hosts = append(c.Hosts, cluster.NewHost(fmt.Sprintf("%s-%03d", prefix, i), m))
		}
	}
	add("hp715", 64, cluster.HP715)
	add("hp720", 24, cluster.HP720)
	add("hp710", 12, cluster.HP710)
	c.Advance(30 * time.Minute)
	return c
}

func (q *deepQueue) reference() error { return nil }

func (q *deepQueue) serialMLUPS() float64 { return 0 }

func (q *deepQueue) rep(i int, tr *tracer) (*repResult, error) {
	k := q.order[i%len(q.order)]
	r, digest, err := q.replay(int64(k+1), tr)
	if err != nil {
		return nil, err
	}
	r.checks = 1
	if digest != deepQueuePins[k] {
		r.failures = 1
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d (instance seed %d): digest %s, pinned %s\n", i, k+1, digest, deepQueuePins[k])
	}
	return r, nil
}

// replay runs the whole deep queue once and returns its measurements
// and the digest of its Summary JSON and event stream.
func (q *deepQueue) replay(seed int64, tr *tracer) (*repResult, string, error) {
	r := &repResult{}
	var l *lane
	if tr != nil {
		l = tr.lane(-1, true)
	}
	t0 := time.Now()
	jobs, err := workload.Generate(q.spec, seed)
	if err != nil {
		return nil, "", err
	}
	r.generate = time.Since(t0)
	every, scenario, err := q.spec.Scenario.Compile()
	if err != nil {
		return nil, "", err
	}
	tk := &ticker{l: l}
	f, err := farm.New(syntheticPool(),
		farm.WithSeed(seed),
		farm.WithTimer(tracedTimer(l, farm.ComputeTimer)),
		farm.WithScenario(every, tk.wrap(scenario)))
	if err != nil {
		return nil, "", err
	}
	events := subscribe(f)
	r.setup = time.Since(t0)

	t1 := time.Now()
	spanned(l, "sched.submit", func() {
		for _, js := range jobs {
			var w farm.Workload = farm.NullWorkload{}
			if l != nil {
				w = &farmJob{Workload: w, l: l}
			}
			if _, err = f.Submit(js, w); err != nil {
				return
			}
		}
		f.Drain()
	})
	if err != nil {
		return nil, "", err
	}
	var sum farm.Summary
	spanned(l, "sched.run", func() { sum, err = f.Run(context.Background()) })
	r.solve = time.Since(t1)
	if err != nil {
		return nil, "", err
	}
	evs, err := events.wait(false)
	if err != nil {
		return nil, "", err
	}

	r.stepMs = tk.stepMs
	r.jobs = len(sum.Jobs)
	for _, js := range jobs {
		gx, gy, gz := js.Grid()
		r.nodeUpdates += float64(gx*gy*max(gz, 1)) * float64(js.Steps)
	}
	if r.jobs != len(jobs) {
		return nil, "", fmt.Errorf("%d of %d jobs finished", r.jobs, len(jobs))
	}
	if l != nil {
		countEvents(l, evs)
	}
	h := sha256.New()
	sj, err := json.Marshal(sum)
	if err != nil {
		return nil, "", err
	}
	h.Write(sj)
	for _, ev := range evs {
		fmt.Fprintln(h, ev)
	}
	return r, hex.EncodeToString(h.Sum(nil)), nil
}
