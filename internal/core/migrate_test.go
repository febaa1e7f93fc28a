package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/fluid"
	"repro/internal/pool"
	"repro/internal/syncfile"
)

func newTestJob(t *testing.T, cfg *Config2D, until int) (*Job, *JobPrograms2D) {
	t.Helper()
	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sf.Poll = time.Millisecond
	j, jp, err := NewJob2D(cfg, HubFactory(), sf, until)
	if err != nil {
		t.Fatal(err)
	}
	j.WaitTimeout = 30 * time.Second
	return j, jp
}

// TestMigrationPreservesSolution runs the full section-5.1 protocol twice
// mid-run and checks the final solution is bitwise identical to an
// uninterrupted run: sync, dump, restart on a "new host", re-open
// channels, continue.
func TestMigrationPreservesSolution(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}

	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)
	j.Start()

	// Let the computation get going, then migrate rank 1, then rank 3.
	time.Sleep(20 * time.Millisecond)
	var dumps []*dump.State
	if err := j.MigrateRanks([]int{1}, func(rank int, st *dump.State) {
		dumps = append(dumps, st)
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := j.MigrateRanks([]int{3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()

	if j.Migrations != 2 {
		t.Errorf("Migrations = %d, want 2", j.Migrations)
	}
	if len(dumps) != 1 || dumps[0].Rank != 1 {
		t.Errorf("onDump saw %v", dumps)
	}
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("migrated run differs from reference at (%d,%d) by %g", x, y, d)
	}
	if j.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2 after two migrations", j.Epoch())
	}
}

// TestSimultaneousMigration migrates two ranks in one round (the paper:
// "the synchronization allows more than one process to migrate at the
// same time if it is desired").
func TestSimultaneousMigration(t *testing.T) {
	const steps = 30
	ref, _, err := RunSequential2D(channelConfig(t, MethodFD, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodFD, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	time.Sleep(15 * time.Millisecond)
	if err := j.MigrateRanks([]int{0, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("double migration differs at (%d,%d) by %g", x, y, d)
	}
}

// TestMigrationReleasesOldWorkers migrates ranks repeatedly and requires
// the goroutine count to return to its baseline after shutdown: every
// replaced worker's control goroutine must exit, releasing the solver it
// holds.
func TestMigrationReleasesOldWorkers(t *testing.T) {
	const steps, migrations = 30, 6
	// Start the shared kernel pool first: its workers live for the
	// process and must not count against the job.
	var r pool.Runner
	r.Run(2, 2, func(lo, hi int) {})
	baseline := runtime.NumGoroutine()

	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 1, 16, 8), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, channelConfig(t, MethodLB, 2, 1, 16, 8), steps)
	j.Start()
	for i := 0; i < migrations; i++ {
		if err := j.MigrateRanks([]int{i % 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	if ok, x, y, d := resultsEqual(ref, jp.Gather(steps), 0); !ok {
		t.Errorf("migrated run differs at (%d,%d) by %g", x, y, d)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %d migrations after shutdown, baseline %d", runtime.NumGoroutine(), migrations, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMigrationAfterCompletion: a migration request that lands when some
// workers already finished still completes (sync step clamps to the run
// length).
func TestMigrationAfterCompletion(t *testing.T) {
	const steps = 5
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 1, 16, 8), steps)
	if err != nil {
		t.Fatal(err)
	}
	j, jp := newTestJob(t, cfg, steps)
	j.Start()
	// Wait for both workers to report done, then migrate.
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	if err := j.MigrateRanks([]int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("post-completion migration corrupted state at (%d,%d) by %g", x, y, d)
	}
}

// TestMonitorDrivenMigration wires the virtual cluster to the job: a
// background job lands on a workstation, the five-minute load crosses 1.5,
// MonitorOnce migrates the affected rank to a free host, and the solution
// is unharmed.
func TestMonitorDrivenMigration(t *testing.T) {
	const steps = 40
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)

	cl := cluster.NewPaperCluster()
	cl.Advance(30 * time.Minute) // all users idle
	if err := j.PlaceOnCluster(cl); err != nil {
		t.Fatal(err)
	}
	j.Start()

	// No migration needed while hosts are quiet.
	if ranks, err := j.MonitorOnce(cluster.DefaultMigrationPolicy(), nil); err != nil || len(ranks) != 0 {
		t.Fatalf("spurious migration: %v %v", ranks, err)
	}

	// A regular user starts a full-time job on rank 2's host.
	busyHost := j.HostOf(2)
	busyHost.StartJob()
	cl.Advance(10 * time.Minute) // load climbs past 1.5

	ranks, err := j.MonitorOnce(cluster.DefaultMigrationPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 1 || ranks[0] != 2 {
		t.Fatalf("migrated ranks %v, want [2]", ranks)
	}
	if busyHost.Assigned() != -1 {
		t.Error("busy host still has the subprocess assigned")
	}
	if newHost := j.HostOf(2); newHost == busyHost || newHost.Assigned() != 2 {
		t.Error("rank 2 not reassigned to a fresh host")
	}

	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("monitored run differs at (%d,%d) by %g", x, y, d)
	}
}

// TestMigrateUnknownRank: protocol rejects ranks that do not exist.
func TestMigrateUnknownRank(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	j, _ := newTestJob(t, cfg, 5)
	if err := j.MigrateRanks([]int{7}, nil); err == nil {
		t.Error("migration of unknown rank accepted")
	}
	j.Start()
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}

// TestMonitorLoop drives the full monitoring program: periodic checks on
// simulated time, a scripted load scenario, automatic migration, and the
// usual bitwise-exactness guarantee.
func TestMonitorLoop(t *testing.T) {
	const steps = 60
	ref, _, err := RunSequential2D(channelConfig(t, MethodLB, 2, 2, 24, 16), steps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channelConfig(t, MethodLB, 2, 2, 24, 16)
	j, jp := newTestJob(t, cfg, steps)
	cl := cluster.NewPaperCluster()
	cl.Advance(30 * time.Minute)
	if err := j.PlaceOnCluster(cl); err != nil {
		t.Fatal(err)
	}
	// Hold every rank at step 10 until the user job lands, so the job is
	// still running when the monitor sees the load: without the gate a
	// fast machine finishes all 60 steps before the second check.
	gate := make(chan struct{})
	for _, r := range j.ranks() {
		j.workers[r].Prog = &gatedProgram{Program: j.workers[r].Prog, gate: gate, at: 10}
	}
	j.Start()

	migrated, err := j.MonitorLoop(5*time.Minute, cluster.DefaultMigrationPolicy(),
		func(tick int, c *cluster.Cluster) {
			if tick == 1 {
				// A user job lands on rank 0's host at the second check.
				j.HostOf(0).StartJob()
				close(gate)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if migrated == 0 {
		t.Error("monitor loop never migrated despite the busy host")
	}
	j.Shutdown()
	got := jp.Gather(steps)
	if ok, x, y, d := resultsEqual(ref, got, 0); !ok {
		t.Errorf("monitored run differs at (%d,%d) by %g", x, y, d)
	}
}

// gatedProgram blocks its rank's phase-0 compute of step `at` until gate
// is closed.
type gatedProgram struct {
	Program
	gate  chan struct{}
	at    int
	steps int
}

func (g *gatedProgram) Compute(phase int) {
	if phase == 0 {
		if g.steps == g.at {
			<-g.gate
		}
		g.steps++
	}
	g.Program.Compute(phase)
}

// TestMonitorLoopRequiresCluster: defensive error path.
func TestMonitorLoopRequiresCluster(t *testing.T) {
	cfg := channelConfig(t, MethodLB, 2, 1, 16, 8)
	j, _ := newTestJob(t, cfg, 2)
	if _, err := j.MonitorLoop(time.Minute, cluster.DefaultMigrationPolicy(), nil); err == nil {
		t.Error("MonitorLoop without a cluster accepted")
	}
	j.Start()
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
}

// TestMigration3D: the full protocol on a 3D job (the LB sweep exchange
// crosses the migration boundary intact).
func TestMigration3D(t *testing.T) {
	const steps = 20
	mkCfg := func() *Config3D {
		d, err := decomp.New3D(2, 2, 1, 12, 12, 8)
		if err != nil {
			t.Fatal(err)
		}
		d.PeriodicX = true
		p := fluid.DefaultParams()
		p.Nu = 0.1
		p.Eps = 0.005
		p.ForceX = 1e-5
		return &Config3D{
			Method: MethodLB, Par: p,
			Mask: fluid.ChannelMask3D(12, 12, 8), D: d,
		}
	}
	ref, _, err := RunSequential3D(mkCfg(), steps)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := syncfile.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sf.Poll = time.Millisecond
	j, jp, err := NewJob3D(mkCfg(), HubFactory(), sf, steps)
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	time.Sleep(10 * time.Millisecond)
	if err := j.MigrateRanks([]int{2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDone(); err != nil {
		t.Fatal(err)
	}
	j.Shutdown()
	got := jp.Gather(steps)
	for i := range ref.Rho {
		if ref.Rho[i] != got.Rho[i] || ref.Vx[i] != got.Vx[i] ||
			ref.Vy[i] != got.Vy[i] || ref.Vz[i] != got.Vz[i] {
			t.Fatalf("3D migrated run differs at node %d", i)
		}
	}
}
