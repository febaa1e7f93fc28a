package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/farm"
	"repro/farm/workload"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/syncfile"
)

// The scripted scenario of farm-churn, in the farm's virtual time. The
// generated low-priority jobs all arrive within the first tenth of a
// second; the 20-rank burst arrives after churnBurstAt and preempts
// them; later a user reclaims one of their hosts, one is resized, the
// farm checkpoints every churnCkptEvery and crashes at churnCrashAt.
const (
	churnTick      = 50 * time.Millisecond
	churnBurstAt   = 300 * time.Millisecond
	churnReclaimAt = 800 * time.Millisecond
	churnResizeAt  = time.Second
	churnCkptEvery = 2 * time.Second
	churnCrashAt   = 2 * time.Second
)

// farmChurn is farm-churn: a handful of small real CoreWorkload jobs
// (lb2d, fd2d, lb3d, fd3d) on the paper's 25-host pool, under a script
// that forces a priority preemption, a reclaim-driven migration, one
// resize, periodic checkpoints, and a crash restored from the latest
// checkpoint. Each job's final fields must match its undisturbed
// sequential run bit for bit.
type farmChurn struct {
	o    options
	want map[int64]map[string][][]float64 // by instance seed, then job
}

// churnInstances is how many generated job mixes a run cycles through:
// repetition i runs instance i mod churnInstances, whose seed derives
// from the run's seed.
const churnInstances = 4

func (c *farmChurn) instance(i int) int64 {
	return farm.NewRNG(c.o.seed).Derive(strconv.Itoa(i % churnInstances)).Int63()
}

func newFarmChurn(o options) bench { return &farmChurn{o: o} }

// churnSpec is the generated job mix. The seed draws arrival times and
// step counts; shapes and sides are fixed, so every method and every
// scripted event occurs on every seed and the work barely moves.
func churnSpec() *workload.Spec {
	cohort := func(method string, jx, jy, jz, side, n int) workload.Cohort {
		return workload.Cohort{
			Name:     method,
			Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 10 * time.Millisecond},
			Jobs: workload.JobDist{
				Shapes:  []workload.ShapeChoice{{Method: method, JX: jx, JY: jy, JZ: jz}},
				SideMin: side,
				Steps:   workload.StepsDist{Median: 600, Sigma: 0.05, Min: 560, Max: 640},
			},
			MaxJobs: n,
		}
	}
	burst := workload.Cohort{
		Name:     "burst",
		Arrivals: workload.Arrivals{Process: workload.Poisson, MeanGap: 50 * time.Millisecond, Start: churnBurstAt},
		Jobs: workload.JobDist{
			Shapes:  []workload.ShapeChoice{{Method: "lb2d", JX: 10, JY: 2}},
			SideMin: 6,
			Steps:   workload.StepsDist{Median: 150, Sigma: 0.1, Min: 120, Max: 180},
		},
		Priorities: []workload.IntChoice{{Value: 9, Weight: 1}},
		MaxJobs:    1,
	}
	return &workload.Spec{
		Name:    "churn",
		Horizon: time.Hour,
		Cohorts: []workload.Cohort{
			cohort("lb2d", 2, 2, 0, 16, 2),
			cohort("fd2d", 2, 2, 0, 16, 1),
			cohort("lb3d", 2, 1, 1, 8, 1),
			burst,
		},
	}
}

// churnJob is one real simulation built from a job spec.
type churnJob struct {
	job    *core.Job
	gather func() [][]float64
	nodes  int
}

// newChurnJob builds the simulation a spec stands for: a channel flow
// on the spec's grid and lattice, periodic in x, filter off (so it can
// be resized), density perturbed by the seed. factory may be nil for
// the sequential reference.
func newChurnJob(spec farm.JobSpec, seed int64, syncDir string, factory core.TransportFactory) (*churnJob, error) {
	gx, gy, gz := spec.Grid()
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.Eps = 0
	par.ForceX = 1e-5
	method := core.MethodLB
	stencil := decomp.Full
	if spec.Method == "fd2d" || spec.Method == "fd3d" {
		method, stencil = core.MethodFD, decomp.Star
	}
	var sf *syncfile.Sync
	if syncDir != "" {
		var err error
		if sf, err = syncfile.New(syncDir); err != nil {
			return nil, err
		}
		sf.Poll = time.Millisecond
	}
	if !spec.Is3D() {
		d, err := decomp.New2D(spec.JX, spec.JY, gx, gy, stencil)
		if err != nil {
			return nil, err
		}
		d.PeriodicX = true
		cfg := &core.Config2D{Method: method, Par: par, Mask: fluid.ChannelMask2D(gx, gy), D: d,
			InitRho: func(x, y int) float64 { return perturb(seed, x, y, 0) }}
		if factory == nil {
			res, _, err := core.RunSequential2D(cfg, spec.Steps)
			if err != nil {
				return nil, err
			}
			return &churnJob{gather: func() [][]float64 { return [][]float64{res.Rho, res.Vx, res.Vy} }}, nil
		}
		job, progs, err := core.NewJob2D(cfg, factory, sf, spec.Steps)
		if err != nil {
			return nil, err
		}
		return &churnJob{job: job, nodes: gx * gy, gather: func() [][]float64 {
			res := progs.Gather(spec.Steps)
			return [][]float64{res.Rho, res.Vx, res.Vy}
		}}, nil
	}
	d, err := decomp.New3D(spec.JX, spec.JY, spec.JZ, gx, gy, gz)
	if err != nil {
		return nil, err
	}
	d.PeriodicX = true
	cfg := &core.Config3D{Method: method, Par: par, Mask: fluid.ChannelMask3D(gx, gy, gz), D: d,
		InitRho: func(x, y, z int) float64 { return perturb(seed, x, y, z) }}
	if factory == nil {
		res, _, err := core.RunSequential3D(cfg, spec.Steps)
		if err != nil {
			return nil, err
		}
		return &churnJob{gather: func() [][]float64 { return [][]float64{res.Rho, res.Vx, res.Vy, res.Vz} }}, nil
	}
	job, progs, err := core.NewJob3D(cfg, factory, sf, spec.Steps)
	if err != nil {
		return nil, err
	}
	return &churnJob{job: job, nodes: gx * gy * gz, gather: func() [][]float64 {
		res := progs.Gather(spec.Steps)
		return [][]float64{res.Rho, res.Vx, res.Vy, res.Vz}
	}}, nil
}

func (c *farmChurn) reference() error {
	c.want = map[int64]map[string][][]float64{}
	for i := 0; i < churnInstances; i++ {
		seed := c.instance(i)
		jobs, err := workload.Generate(churnSpec(), seed)
		if err != nil {
			return err
		}
		want := map[string][][]float64{}
		for _, js := range jobs {
			j, err := newChurnJob(js, seed, "", nil)
			if err != nil {
				return fmt.Errorf("%s: %w", js.ID, err)
			}
			want[js.ID] = j.gather()
		}
		c.want[seed] = want
	}
	return nil
}

func (c *farmChurn) serialMLUPS() float64 { return 0 }

// churnRun is the state of one repetition, shared by the doomed farm
// and the one restored from its checkpoint.
type churnRun struct {
	c      *farmChurn
	seed   int64 // the instance's seed
	dir    string
	l      *lane // the scheduling goroutine's lane; nil untraced
	tr     *tracer
	cur    *farm.Farm
	jobs   map[string]*farmJob // the live wrapper of every job
	final  map[string]func() [][]float64
	nodes  map[string]int
	clocks map[string]*stepClock // per job, shared by its rebuilt copies
	t0     time.Time
	gen    int // sync directories are per built job
	ckpts  int
	errs   []error

	reclaimed, resized, crashed bool
}

// build makes a job's simulation and its farm wrapper on a pool.
func (r *churnRun) build(spec farm.JobSpec, pool *farm.Cluster) (farm.Workload, error) {
	r.gen++
	if r.clocks[spec.ID] == nil {
		r.clocks[spec.ID] = newStepClock(r.t0)
	}
	factory := r.clocks[spec.ID].factory(core.HubFactory())
	if r.tr != nil {
		factory = tracedFactory(factory, func(rank int) *lane { return r.tr.lane(rank, false) }, nil)
	}
	j, err := newChurnJob(spec, r.seed, filepath.Join(r.dir, fmt.Sprintf("sync-%d", r.gen)), factory)
	if err != nil {
		return nil, err
	}
	fj := &farmJob{Workload: &farm.CoreWorkload{Job: j.job, Cluster: pool}, l: r.l}
	fj.finished = func() { r.final[spec.ID] = j.gather }
	r.jobs[spec.ID] = fj
	r.nodes[spec.ID] = j.nodes
	return fj, nil
}

// scenario is the scripted user activity, checkpoints and crash.
func (r *churnRun) scenario(t time.Duration, c *cluster.Cluster) {
	if r.l != nil {
		defer r.l.end(r.l.begin("sched.scenario"))
	}
	if !r.reclaimed && t >= churnReclaimAt {
		for _, h := range c.Hosts {
			if o := h.Owner(); o != "" && o != "burst-0000" && !h.Reclaimed() {
				c.Reclaim(h)
				r.reclaimed = true
				break
			}
		}
	}
	if t > 0 && t%churnCkptEvery == 0 {
		var err error
		spanned(r.l, "ckpt.save", func() { err = r.cur.Checkpoint(r.ckptDir()) })
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("checkpoint at %v: %w", t, err))
			return
		}
		r.ckpts++
		if !r.crashed && t >= churnCrashAt {
			r.crashed = true
			r.cur.Interrupt()
		}
	}
}

// autoscale shrinks the first running four-rank 2D job to two ranks.
func (r *churnRun) autoscale(t time.Duration, ctl farm.AutoscaleControl) {
	if r.resized || t < churnResizeAt {
		return
	}
	if r.l != nil {
		defer r.l.end(r.l.begin("sched.autoscale"))
	}
	running := ctl.Sample().Running
	sort.Slice(running, func(a, b int) bool { return running[a].ID < running[b].ID })
	for _, js := range running {
		if js.Ranks == 4 && (js.ID[:4] == "lb2d" || js.ID[:4] == "fd2d") {
			if err := ctl.Resize(js.ID, 2); err != nil {
				r.errs = append(r.errs, fmt.Errorf("resize %s: %w", js.ID, err))
			}
			r.resized = true
			return
		}
	}
}

// options attaches the scripted callbacks and the (traced) timer; the
// doomed farm and the restored one get the same.
func (r *churnRun) options() []farm.Option {
	return []farm.Option{
		farm.WithTimer(tracedTimer(r.l, farm.ComputeTimer)),
		farm.WithScenario(churnTick, r.scenario),
		farm.WithAutoscaler(churnTick, r.autoscale),
	}
}

func (c *farmChurn) rep(i int, tr *tracer) (*repResult, error) {
	r := &churnRun{
		c: c, seed: c.instance(i), tr: tr, dir: filepath.Join(c.o.workdir, fmt.Sprintf("churn-%d", i)),
		jobs: map[string]*farmJob{}, final: map[string]func() [][]float64{}, nodes: map[string]int{},
		clocks: map[string]*stepClock{}, t0: time.Now(),
	}
	defer settle(r.dir)
	if tr != nil {
		r.l = tr.lane(-1, true)
	}
	res := &repResult{}

	t0 := time.Now()
	specs, err := workload.Generate(churnSpec(), r.seed)
	if err != nil {
		return nil, err
	}
	res.generate = time.Since(t0)
	pool := farm.NewPaperCluster()
	pool.Advance(30 * time.Minute)
	doomed, err := farm.New(pool, append(r.options(), farm.WithPolicy(farm.Priority), farm.WithSeed(r.seed))...)
	if err != nil {
		return nil, err
	}
	r.cur = doomed
	works := make([]farm.Workload, len(specs))
	for k, js := range specs {
		if works[k], err = r.build(js, pool); err != nil {
			return nil, err
		}
	}
	events := subscribe(doomed)
	res.setup = time.Since(t0)

	t1 := time.Now()
	spanned(r.l, "sched.submit", func() {
		for k, js := range specs {
			if _, err = doomed.Submit(js, works[k]); err != nil {
				return
			}
		}
		doomed.Drain()
	})
	if err != nil {
		return nil, err
	}
	spanned(r.l, "sched.run", func() { _, err = doomed.Run(context.Background()) })
	if !errors.Is(err, farm.ErrInterrupted) {
		return nil, fmt.Errorf("doomed run: %v (want an interrupt at %v)", err, churnCrashAt)
	}
	crash := time.Since(t1)
	evs, err := events.wait(true)
	if err != nil {
		return nil, err
	}
	// The crashed coordinator's simulations would die with it; stop them
	// outside the timed region.
	for _, id := range sortedKeys(r.jobs) {
		if fj := r.jobs[id]; fj.running {
			if err := fj.Workload.Suspend(); err != nil {
				return nil, fmt.Errorf("stopping %s after the crash: %w", id, err)
			}
		}
	}

	t2 := time.Now()
	reg := farm.WorkloadRegistry{}
	pool2 := farm.NewPaperCluster()
	for _, js := range specs {
		reg[js.ID] = func(spec farm.JobSpec) (farm.Workload, error) { return r.build(spec, pool2) }
	}
	var restored *farm.Farm
	spanned(r.l, "ckpt.restore", func() { restored, err = farm.Restore(r.ckptDir(), pool2, reg, r.options()...) })
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	r.cur = restored
	events = subscribe(restored)
	var sum farm.Summary
	spanned(r.l, "sched.run", func() { sum, err = restored.Run(context.Background()) })
	if err != nil {
		return nil, fmt.Errorf("restored run: %w", err)
	}
	res.solve = crash + time.Since(t2)
	evs2, err := events.wait(false)
	if err != nil {
		return nil, err
	}
	evs = append(evs, evs2...)
	for _, id := range sortedKeys(r.clocks) {
		res.stepMs = append(res.stepMs, r.clocks[id].stepMs()...)
	}
	res.jobs = len(sum.Jobs)
	for _, js := range specs {
		res.nodeUpdates += float64(r.nodes[js.ID]) * float64(js.Steps)
	}
	if tr != nil {
		countEvents(r.l, evs)
		res.ckptBytes = dirBytes(r.ckptDir())
	}

	// The checks: every scripted event happened and every job's fields
	// match its sequential run.
	counts := map[string]int{}
	for _, ev := range evs {
		switch ev.(type) {
		case farm.JobPreempted:
			counts["preempted"]++
		case farm.JobMigrated:
			counts["migrated"]++
		case farm.JobResized:
			counts["resized"]++
		}
	}
	res.checks = 1
	var problems []string
	for _, err := range r.errs {
		problems = append(problems, err.Error())
	}
	if counts["preempted"] < 1 || counts["migrated"] < 1 || counts["resized"] != 1 || r.ckpts < 3 {
		problems = append(problems, fmt.Sprintf("scripted events: %d preemptions, %d migrations, %d resizes, %d checkpoints",
			counts["preempted"], counts["migrated"], counts["resized"], r.ckpts))
	}
	for _, js := range specs {
		res.checks++
		got, ok := r.final[js.ID]
		if !ok {
			problems = append(problems, js.ID+" never finished")
			continue
		}
		if !sameBits(got(), c.want[r.seed][js.ID]) {
			problems = append(problems, js.ID+" differs from its sequential run")
		}
	}
	if len(problems) > 0 {
		res.failures = len(problems)
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", i, problems)
	}
	return res, nil
}

// settle removes a repetition's files and commits the removal to disk
// (an fsync of the parent directory commits the file system's journal),
// so the next repetition's checkpoint commits do not pay for this one's
// deletions.
func settle(dir string) {
	os.RemoveAll(dir)
	if f, err := os.Open(filepath.Dir(dir)); err == nil {
		f.Sync()
		f.Close()
	}
}

func (r *churnRun) ckptDir() string { return filepath.Join(r.dir, "ckpt") }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dirBytes is the size of the files under dir.
func dirBytes(dir string) float64 {
	total := 0.0
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
			}
		}
		return nil
	})
	return total
}
