package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fluid"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/registry"
)

// simWorkload drives one decomposed simulation with a goroutine per rank
// calling core.Worker.RunStep, and checks the gathered fields bit for
// bit against core.RunSequential2D/3D on the same config.
type simWorkload struct {
	o      options
	kernel string // "lbm" or "fd"
	steps  int
	tcp    bool

	// newJob builds the config's programs; gather assembles the fields
	// of those programs into one comparable list.
	newJob     func() (progs []core.Program, p int, nodes int, gather func(steps int) [][]float64, err error)
	sequential func(steps int) ([][]float64, error)

	want   [][]float64
	serial float64
}

// perturb is the seeded input of the simulations: a density field 1 +
// 1e-6*u(x, y, z), u uniform in [-1, 1), a pure function of the seed and
// the global coordinates.
func perturb(seed int64, x, y, z int) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(x)<<40 ^ uint64(y)<<20 ^ uint64(z)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return 1 + 1e-6*(float64(h>>11)/(1<<52)-1)
}

// newFlueHub is lb2d-flue-hub: the figure-1 flue pipe, 500x400 nodes,
// lattice Boltzmann with the filter on, 5x4 ranks of 100x100 nodes, the
// in-process hub.
func newFlueHub(o options) bench {
	const nx, ny, jx, jy = 500, 400, 5, 4
	cfg := func() (*core.Config2D, error) {
		par := fluid.DefaultParams()
		par.Nu = 0.02
		par.Eps = 0.01
		par.InletVx = 0.08
		d, err := decomp.New2D(jx, jy, nx, ny, decomp.Full)
		if err != nil {
			return nil, err
		}
		return &core.Config2D{
			Method: core.MethodLB, Par: par, Mask: geom.FluePipe(nx, ny), D: d,
			InitRho: func(x, y int) float64 { return perturb(o.seed, x, y, 0) },
		}, nil
	}
	return &simWorkload{o: o, kernel: "lbm", steps: 30, newJob: job2D(cfg), sequential: seq2D(cfg)}
}

// newSmallTCP is fd3d-small-tcp: a periodic 3D channel, finite
// differences, 2x1x1 ranks of 8^3 nodes over TCP on loopback.
func newSmallTCP(o options) bench {
	const n = 8
	cfg := func() (*core.Config3D, error) {
		d, err := decomp.New3D(2, 1, 1, 2*n, n, n)
		if err != nil {
			return nil, err
		}
		// Periodic along x only: the two ranks are each other's
		// neighbours both ways. A periodic axis with one rank would make a
		// rank its own neighbour.
		d.PeriodicX = true
		par := fluid.DefaultParams()
		par.Nu = 0.1
		par.Eps = 0.005
		par.ForceX = 1e-5
		return &core.Config3D{
			Method: core.MethodFD, Par: par, Mask: fluid.ChannelMask3D(2*n, n, n), D: d,
			InitRho: func(x, y, z int) float64 { return perturb(o.seed, x, y, z) },
		}, nil
	}
	return &simWorkload{o: o, kernel: "fd", steps: 2000, tcp: true, newJob: job3D(cfg), sequential: seq3D(cfg)}
}

func job2D(cfg func() (*core.Config2D, error)) func() ([]core.Program, int, int, func(int) [][]float64, error) {
	return func() ([]core.Program, int, int, func(int) [][]float64, error) {
		c, err := cfg()
		if err != nil {
			return nil, 0, 0, nil, err
		}
		raw := make([]*core.Program2D, c.D.P())
		progs := make([]core.Program, c.D.P())
		nodes := 0
		for r := range raw {
			if raw[r], err = c.NewProgram(r); err != nil {
				return nil, 0, 0, nil, err
			}
			progs[r] = raw[r]
			nodes += raw[r].Sub.NX * raw[r].Sub.NY
		}
		gather := func(steps int) [][]float64 {
			res := core.Gather2D(c, raw, steps)
			return [][]float64{res.Rho, res.Vx, res.Vy, res.Vorticity}
		}
		return progs, c.D.P(), nodes, gather, nil
	}
}

func seq2D(cfg func() (*core.Config2D, error)) func(int) ([][]float64, error) {
	return func(steps int) ([][]float64, error) {
		c, err := cfg()
		if err != nil {
			return nil, err
		}
		res, _, err := core.RunSequential2D(c, steps)
		if err != nil {
			return nil, err
		}
		return [][]float64{res.Rho, res.Vx, res.Vy, res.Vorticity}, nil
	}
}

func job3D(cfg func() (*core.Config3D, error)) func() ([]core.Program, int, int, func(int) [][]float64, error) {
	return func() ([]core.Program, int, int, func(int) [][]float64, error) {
		c, err := cfg()
		if err != nil {
			return nil, 0, 0, nil, err
		}
		raw := make([]*core.Program3D, c.D.P())
		progs := make([]core.Program, c.D.P())
		nodes := 0
		for r := range raw {
			if raw[r], err = c.NewProgram(r); err != nil {
				return nil, 0, 0, nil, err
			}
			progs[r] = raw[r]
			nodes += raw[r].Sub.NX * raw[r].Sub.NY * raw[r].Sub.NZ
		}
		gather := func(steps int) [][]float64 {
			res := core.Gather3D(c, raw, steps)
			return [][]float64{res.Rho, res.Vx, res.Vy, res.Vz}
		}
		return progs, c.D.P(), nodes, gather, nil
	}
}

func seq3D(cfg func() (*core.Config3D, error)) func(int) ([][]float64, error) {
	return func(steps int) ([][]float64, error) {
		c, err := cfg()
		if err != nil {
			return nil, err
		}
		res, _, err := core.RunSequential3D(c, steps)
		if err != nil {
			return nil, err
		}
		return [][]float64{res.Rho, res.Vx, res.Vy, res.Vz}, nil
	}
}

func (w *simWorkload) reference() error {
	t0 := time.Now()
	want, err := w.sequential(w.steps)
	if err != nil {
		return err
	}
	secs := time.Since(t0).Seconds()
	w.want = want
	nodes := 0
	if len(want) > 0 {
		nodes = len(want[0])
	}
	w.serial = float64(nodes) * float64(w.steps) / secs / 1e6
	return nil
}

func (w *simWorkload) serialMLUPS() float64 { return w.serial }

func (w *simWorkload) rep(i int, tr *tracer) (*repResult, error) {
	t0 := time.Now()
	progs, p, nodes, gather, err := w.newJob()
	if err != nil {
		return nil, err
	}
	var factory core.TransportFactory
	if w.tcp {
		dir := filepath.Join(w.o.workdir, fmt.Sprintf("registry-%d", i))
		reg, err := registry.New(dir)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		factory = func(rank, epoch int) (msg.Transport, error) { return msg.NewTCP(rank, epoch, reg) }
	} else {
		factory = core.HubFactory()
	}
	lanes := make([]*lane, p)
	transports := make([]*tracedTransport, p)
	if tr != nil {
		for r := range lanes {
			lanes[r] = tr.lane(r, true)
		}
		factory = tracedFactory(factory, func(rank int) *lane { return lanes[rank] },
			func(rank int, t *tracedTransport) { transports[rank] = t })
	}
	if tr != nil || w.o.slowCompute {
		for r := range progs {
			progs[r] = wrapProgram(progs[r], lanes[r], w.kernel, nodes/p, w.o.slowCompute)
		}
	}
	workers := make([]*core.Worker, p)
	for r := range workers {
		if workers[r], err = core.NewWorker(progs[r], factory, 0, nil); err != nil {
			return nil, err
		}
		if transports[r] != nil {
			transports[r].step = &workers[r].Step
		}
	}
	defer func() {
		for _, wk := range workers {
			wk.Close()
		}
	}()
	setup := time.Since(t0)

	stamps := make([][]int64, p)
	for r := range stamps {
		stamps[r] = make([]int64, w.steps)
	}
	errs := make([]error, p)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	var wg sync.WaitGroup
	for r := range workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			wk, l := workers[r], lanes[r]
			for k := 0; k < w.steps; k++ {
				var err error
				if l != nil {
					s := l.begin("core.step")
					err = wk.RunStep()
					l.end(s)
				} else {
					err = wk.RunStep()
				}
				if err != nil {
					errs[r] = err
					return
				}
				stamps[r][k] = int64(time.Since(t1))
			}
		}(r)
	}
	wg.Wait()
	solve := time.Since(t1)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &repResult{
		setup: setup, solve: solve, jobs: 1,
		nodeUpdates: float64(nodes) * float64(w.steps),
		steps:       w.steps,
		mallocs:     ms1.Mallocs - ms0.Mallocs,
		checks:      1,
	}
	prev := int64(0)
	for k := 0; k < w.steps; k++ {
		last := int64(0)
		for r := range stamps {
			last = max(last, stamps[r][k])
		}
		res.stepMs = append(res.stepMs, float64(last-prev)/1e6)
		prev = last
	}
	if !sameBits(gather(w.steps), w.want) {
		res.failures = 1
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d differs from the sequential reference\n", i)
	}
	return res, nil
}

// sameBits reports whether two field lists are identical bit for bit.
func sameBits(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for f := range got {
		if len(got[f]) != len(want[f]) {
			return false
		}
		for i := range got[f] {
			if math.Float64bits(got[f][i]) != math.Float64bits(want[f][i]) {
				return false
			}
		}
	}
	return true
}
