package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/farm"
	"repro/farm/workload"
	"repro/internal/perf"
)

// Scheduler golden digests: SHA-256 of a farm run's Summary JSON followed
// by its full event stream, one String line per event. Every scheduling
// decision, every draw of the farm's RNG that changes a placement and
// every step price shows up in one or the other, so a hot-path rewrite of
// the scheduler or the cluster must leave these bytes alone.
//
// Regenerate (only for an intended change of scheduling behaviour) with
//
//	go test -run TestSchedGoldenDigests -update-golden .
const schedGoldenFile = "testdata/sched_golden.txt"

// Registry names of the golden runs' custom timer and pool.
const (
	goldenPerfTimer  = "golden-perf-ethernet"
	goldenHeteroPool = "golden-hetero"
)

// schedDigest is the SHA-256 of the Summary JSON and the event lines,
// each line newline-terminated.
func schedDigest(sum farm.Summary, events []string) (string, error) {
	h := sha256.New()
	sj, err := json.Marshal(sum)
	if err != nil {
		return "", err
	}
	h.Write(sj)
	for _, ev := range events {
		fmt.Fprintln(h, ev)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// schedGoldenRun is one pinned farm run.
type schedGoldenRun struct {
	key  string
	spec *workload.Spec
	cfg  workload.RunConfig
	// check, when set, asserts the run reached the code path it is in
	// the set for.
	check func(farm.Summary) error
}

// deepSpec keeps a queue of wide and narrow jobs tens deep on the paper
// pool under a reclaim storm, so EASY scans many backfill candidates per
// round, most of them too wide for the free hosts.
func deepSpec() *workload.Spec {
	cohort := func(method string, jx, jy, jz, side int) workload.Cohort {
		return workload.Cohort{
			Name:     fmt.Sprintf("%s-%dx%dx%d", method, jx, jy, jz),
			Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 40 * time.Second},
			Jobs: workload.JobDist{
				Shapes:  []workload.ShapeChoice{{Method: method, JX: jx, JY: jy, JZ: jz}},
				SideMin: side, SideMax: side + 8,
				Steps: workload.StepsDist{Median: 3000, Sigma: 0.5},
			},
			Priorities: []workload.IntChoice{{Value: 1, Weight: 3}, {Value: 4, Weight: 1}},
			MaxJobs:    12,
		}
	}
	return &workload.Spec{
		Name:    "deep",
		Horizon: 10 * time.Hour,
		Cohorts: []workload.Cohort{
			cohort("lb2d", 5, 4, 0, 30),
			cohort("lb2d", 4, 2, 0, 36),
			cohort("fd2d", 3, 3, 0, 36),
			cohort("lb3d", 2, 2, 2, 12),
			cohort("fd3d", 2, 2, 1, 12),
			cohort("lb2d", 1, 1, 0, 60),
			cohort("fd2d", 2, 1, 0, 60),
		},
		Scenario: &workload.Scenario{
			Every: time.Minute,
			Events: []workload.Event{{
				Kind: workload.ReclaimStorm, At: 5 * time.Minute, Until: 5 * time.Hour,
				Every: 10 * time.Minute, Hosts: 3, Dwell: 12 * time.Minute,
			}},
		},
	}
}

// schedGoldenRuns are the built-in workload specs and deepSpec under the
// sweep's four policy/backfill knob sets at seeds 1 and 2, each priced by
// the compute timer and by the perf engine on the quiet paper pool (the
// perf-priced built-in runs are the sweep's own cells), plus a run on a
// mixed-model pool where weighted shapes win and an autoscaled run that
// grows and shrinks reservations.
func schedGoldenRuns() []schedGoldenRun {
	knobs := []struct {
		policy   farm.Policy
		backfill farm.BackfillMode
	}{
		{farm.FIFO, farm.BackfillEASY},
		{farm.FIFO, farm.BackfillAggressive},
		{farm.Priority, farm.BackfillEASY},
		{farm.WeightedFair, farm.BackfillEASY},
	}
	timers := []struct{ label, name string }{{"compute", ""}, {"perf", goldenPerfTimer}}
	var runs []schedGoldenRun
	for _, spec := range append(workload.Builtins(), deepSpec()) {
		for _, tm := range timers {
			for _, k := range knobs {
				for seed := int64(1); seed <= 2; seed++ {
					runs = append(runs, schedGoldenRun{
						key:  fmt.Sprintf("%s/%s/%s/%s/seed%d", tm.label, spec.Name, k.policy, k.backfill, seed),
						spec: spec,
						cfg:  workload.RunConfig{Seed: seed, Policy: k.policy, Backfill: k.backfill, Timer: tm.name},
					})
				}
			}
		}
	}
	builtin := workload.Builtins()
	return append(runs,
		schedGoldenRun{
			key:  "hetero/steady/fifo/easy/seed1",
			spec: builtin[0],
			cfg:  workload.RunConfig{Seed: 1, Policy: farm.FIFO, Backfill: farm.BackfillEASY, Pool: goldenHeteroPool},
			check: func(sum farm.Summary) error {
				if sum.Weighted == 0 {
					return fmt.Errorf("no job ran on a weighted shape; the run does not exercise the mixed-speed path")
				}
				return nil
			},
		},
		schedGoldenRun{
			key:  "autoscale/diurnal-churn/fifo/easy/seed1",
			spec: builtin[2],
			cfg: workload.RunConfig{Seed: 1, Policy: farm.FIFO, Backfill: farm.BackfillEASY,
				Autoscale: &workload.AutoscalePlan{Every: 30 * time.Second, Confirm: 2, Cooldown: time.Minute}},
			check: func(sum farm.Summary) error {
				if sum.Resizes == 0 {
					return fmt.Errorf("no resizes; the run does not exercise the resize path")
				}
				return nil
			},
		},
	)
}

// TestSchedGoldenDigests pins the Summary and event stream of every
// schedGoldenRuns run. Like the kernel hashes it runs on amd64 only: the
// load-average and pricing arithmetic carries no fused-multiply-add
// check.
func TestSchedGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("scheduler digests are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	workload.RegisterTimer(goldenPerfTimer, farm.PerfTimer(perf.Ethernet))
	// Only four 715/50s: most reservations span two or three models.
	workload.RegisterPool(goldenHeteroPool, func() *farm.Cluster { return quietPool(4, 8, 8) })
	got := map[string]string{}
	for _, r := range schedGoldenRuns() {
		tr, sum, err := workload.Record(r.spec, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.key, err)
		}
		if r.check != nil {
			if err := r.check(sum); err != nil {
				t.Errorf("%s: %v", r.key, err)
			}
		}
		if got[r.key], err = schedDigest(sum, tr.Events); err != nil {
			t.Fatalf("%s: %v", r.key, err)
		}
	}
	if *updateGolden {
		writeGolden(t, schedGoldenFile, "SHA-256 of Summary JSON + event stream per farm run; see sched_golden_test.go.", got)
		return
	}
	compareGolden(t, readGolden(t, schedGoldenFile), got)
}
