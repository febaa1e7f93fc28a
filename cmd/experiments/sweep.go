package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/farm"
	"repro/farm/workload"
	"repro/internal/perf"
)

var (
	sweepSeedCount = flag.Int("sweep-seeds", 2, "sweep: seeds per (spec, policy, backfill) cell, numbered 1..N")
	sweepOut       = flag.String("sweep-out", "", "sweep: also write the JSON summary table to this file")
)

// sweepTimer is the registry name of the sweep's step timer: the perf
// discrete-event engine on the paper's shared 10 Mbps Ethernet, the
// same pricing the farm experiment uses.
const sweepTimer = "perf-ethernet"

// sweepRow is one cell of the sweep table: the knobs plus the run's
// pinned-schema metrics summary.
type sweepRow struct {
	Spec     string       `json:"spec"`
	Seed     int64        `json:"seed"`
	Policy   string       `json:"policy"`
	Backfill string       `json:"backfill"`
	Jobs     int          `json:"jobs"`
	Summary  farm.Summary `json:"summary"`
}

// sweepTable is the JSON envelope of a sweep run.
type sweepTable struct {
	Format  string     `json:"format"`
	Version int        `json:"version"`
	Timer   string     `json:"timer"`
	Rows    []sweepRow `json:"rows"`
}

// sweep fans the built-in scenario specs across seeds and scheduling
// knobs: each cell generates the workload at its seed, records the full
// event trace, re-runs it in verify mode (exiting non-zero if the
// replay is not byte-identical — the determinism regression pin), and
// reports the run's metrics. The table prints as text and as JSON
// (stdout, plus -sweep-out to write a file).
func sweep() {
	workload.RegisterTimer(sweepTimer, farm.PerfTimer(perf.Ethernet))
	knobs := []struct {
		policy   farm.Policy
		backfill farm.BackfillMode
	}{
		{farm.FIFO, farm.BackfillEASY},
		{farm.FIFO, farm.BackfillAggressive},
		{farm.Priority, farm.BackfillEASY},
		{farm.WeightedFair, farm.BackfillEASY},
	}
	seeds := *sweepSeedCount
	if seeds < 1 {
		seeds = 1
	}
	table := sweepTable{Format: "farm-sweep-summary", Version: 1, Timer: sweepTimer}
	for _, spec := range workload.Builtins() {
		header(fmt.Sprintf("Sweep %q: %d knob sets x %d seeds (trace-verified)", spec.Name, len(knobs), seeds))
		fmt.Printf("%-10s %-12s %5s %5s %12s %12s %8s %9s %7s %6s\n",
			"policy", "backfill", "seed", "jobs", "makespan", "mean wait", "util", "preempts", "bfills", "migr")
		for _, k := range knobs {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				cfg := workload.RunConfig{
					Seed: seed, Policy: k.policy, Backfill: k.backfill, Timer: sweepTimer,
				}
				tr, sum, err := workload.Record(spec, cfg)
				if err != nil {
					log.Fatalf("sweep %s/%s/%s seed %d: %v", spec.Name, k.policy, k.backfill, seed, err)
				}
				if err := tr.Verify(); err != nil {
					log.Fatalf("sweep %s/%s/%s seed %d: %v", spec.Name, k.policy, k.backfill, seed, err)
				}
				table.Rows = append(table.Rows, sweepRow{
					Spec: spec.Name, Seed: seed,
					Policy: k.policy.String(), Backfill: k.backfill.String(),
					Jobs: len(tr.Jobs), Summary: sum,
				})
				fmt.Printf("%-10s %-12s %5d %5d %12s %12s %8.3f %9d %7d %6d\n",
					k.policy, k.backfill, seed, len(tr.Jobs),
					sum.Makespan.Round(time.Second), sum.MeanWait.Round(time.Second),
					sum.Utilization, sum.Preemptions, sum.Backfills, sum.Migrations)
			}
		}
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nJSON summary table (%d rows):\n%s\n", len(table.Rows), data)
	if *sweepOut != "" {
		if err := os.WriteFile(*sweepOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *sweepOut)
	}
}
