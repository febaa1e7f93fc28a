// Benchmarks regenerating every table and figure of the paper's evaluation
// (sections 7-8), plus ablations for the design choices called out in
// DESIGN.md. Efficiency/speedup numbers are emitted as custom metrics
// (b.ReportMetric), so `go test -bench=. -benchmem` prints the figures'
// headline values alongside this machine's real solver speeds.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/farm/workload"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lbm"
	"repro/internal/model"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/perf"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/syncfile"
)

// ---------------------------------------------------------------------------
// Section 7 speed table: real solver speeds on this machine, in fluid
// nodes integrated per second, next to the paper's 39,132 nodes/s baseline.

func BenchmarkTableWorkstationSpeeds(b *testing.B) {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	b.Run("LB2D", func(b *testing.B) {
		m := fluid.ChannelMask2D(128, 128)
		s, err := lbm.NewSolver2D(128, 128, par, func(x, y int) fluid.CellType { return m.At(x, y) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false)
		}
		reportNodesPerSec(b, 128*128, "lb2d")
	})
	b.Run("FD2D", func(b *testing.B) {
		m := fluid.ChannelMask2D(128, 128)
		s, err := fd.NewSolver2D(128, 128, par, func(x, y int) fluid.CellType { return m.At(x, y) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false)
		}
		reportNodesPerSec(b, 128*128, "fd2d")
	})
	b.Run("LB3D", func(b *testing.B) {
		m := fluid.ChannelMask3D(24, 24, 24)
		s, err := lbm.NewSolver3D(24, 24, 24, par, func(x, y, z int) fluid.CellType { return m.At(x, y, z) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false, true)
		}
		reportNodesPerSec(b, 24*24*24, "lb3d")
	})
	b.Run("FD3D", func(b *testing.B) {
		m := fluid.ChannelMask3D(24, 24, 24)
		s, err := fd.NewSolver3D(24, 24, 24, par, func(x, y, z int) fluid.CellType { return m.At(x, y, z) })
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepSerial(true, false, true)
		}
		reportNodesPerSec(b, 24*24*24, "fd3d")
	})
}

func reportNodesPerSec(b *testing.B, nodes int, method string) {
	nps := float64(nodes) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(nps, "nodes/s")
	paper := cluster.BaseNodesPerSecond * cluster.HP715.SpeedFactor(method)
	b.ReportMetric(nps/paper, "x-715/50")
}

// ---------------------------------------------------------------------------
// CI benchmark trajectory: deterministic per-cell kernel cost of each
// solver at fixed worker budgets. Every b.N iteration integrates the
// same fixed number of steps on the same lattice, so the gated ns/cell
// metric is stable even at -benchtime 1x — this is what cmd/benchcmp
// compares against the committed BENCH_main.json. Worker sub-bench names
// avoid trailing numeric segments ("w4", not "4") so plain-text
// normalization can strip GOMAXPROCS suffixes unambiguously.

const stepKernelInner = 8 // fixed steps per b.N iteration

func reportNsPerCell(b *testing.B, nodes int) {
	cells := float64(nodes) * float64(b.N) * stepKernelInner
	b.ReportMetric(b.Elapsed().Seconds()*1e9/cells, "ns/cell")
	b.ReportMetric(cells/b.Elapsed().Seconds(), "nodes/s")
}

func BenchmarkStepKernels(b *testing.B) {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	workerSet := []struct {
		name string
		n    int
	}{{"w1", 1}, {"w4", 4}}

	bench2D := func(b *testing.B, step func(int) interface {
		StepSerial(bool, bool)
		SetWorkers(int)
	}) {
		const nx, ny = 128, 128
		for _, w := range workerSet {
			b.Run(w.name, func(b *testing.B) {
				s := step(w.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < stepKernelInner; k++ {
						s.StepSerial(true, false)
					}
				}
				reportNsPerCell(b, nx*ny)
			})
		}
	}
	bench3D := func(b *testing.B, step func(int) interface {
		StepSerial(bool, bool, bool)
		SetWorkers(int)
	}) {
		const side = 24
		for _, w := range workerSet {
			b.Run(w.name, func(b *testing.B) {
				s := step(w.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < stepKernelInner; k++ {
						s.StepSerial(true, false, true)
					}
				}
				reportNsPerCell(b, side*side*side)
			})
		}
	}

	b.Run("LB2D", func(b *testing.B) {
		bench2D(b, func(workers int) interface {
			StepSerial(bool, bool)
			SetWorkers(int)
		} {
			m := fluid.ChannelMask2D(128, 128)
			s, err := lbm.NewSolver2D(128, 128, par, func(x, y int) fluid.CellType { return m.At(x, y) })
			if err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(workers)
			return s
		})
	})
	b.Run("FD2D", func(b *testing.B) {
		bench2D(b, func(workers int) interface {
			StepSerial(bool, bool)
			SetWorkers(int)
		} {
			m := fluid.ChannelMask2D(128, 128)
			s, err := fd.NewSolver2D(128, 128, par, func(x, y int) fluid.CellType { return m.At(x, y) })
			if err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(workers)
			return s
		})
	})
	b.Run("LB3D", func(b *testing.B) {
		bench3D(b, func(workers int) interface {
			StepSerial(bool, bool, bool)
			SetWorkers(int)
		} {
			m := fluid.ChannelMask3D(24, 24, 24)
			s, err := lbm.NewSolver3D(24, 24, 24, par, func(x, y, z int) fluid.CellType { return m.At(x, y, z) })
			if err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(workers)
			return s
		})
	})
	b.Run("FD3D", func(b *testing.B) {
		bench3D(b, func(workers int) interface {
			StepSerial(bool, bool, bool)
			SetWorkers(int)
		} {
			m := fluid.ChannelMask3D(24, 24, 24)
			s, err := fd.NewSolver3D(24, 24, 24, par, func(x, y, z int) fluid.CellType { return m.At(x, y, z) })
			if err != nil {
				b.Fatal(err)
			}
			s.SetWorkers(workers)
			return s
		})
	})
}

// ---------------------------------------------------------------------------
// Kernel phases: the cost of each Compute(phase) of each method on one
// rank at one worker, so a kernel change names the phase it moved. Each
// iteration runs a full step; only the named phase is timed. The 2D
// rank is the flue pipe at 100x100 (walls, inlet slot, sharp edge,
// outlet, so mixed rows dominate as on a real flue rank), the 3D rank a
// closed 24^3 duct with an inlet and an outlet face. Both domains are
// closed, so no exchange is needed between phases.

type phasedKernel interface {
	Phases() int
	Compute(phase int)
	SetWorkers(n int)
}

func kernelPhaseParams() fluid.Params {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	par.ForceX = 1e-5
	par.InletVx = 0.04
	return par
}

// closedDuct3D is a 24^3 duct walled on y and z, inlet at x = 0, outlet
// at x = n-1.
func closedDuct3D(n int) func(x, y, z int) fluid.CellType {
	m := fluid.NewMask3D(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				switch {
				case y == 0 || y == n-1 || z == 0 || z == n-1:
					m.Set(x, y, z, fluid.Wall)
				case x == 0:
					m.Set(x, y, z, fluid.Inlet)
				case x == n-1:
					m.Set(x, y, z, fluid.Outlet)
				}
			}
		}
	}
	return m.At
}

func BenchmarkKernelPhases(b *testing.B) {
	const side2, side3 = 100, 24
	flue := geom.FluePipe(side2, side2).At
	duct := closedDuct3D(side3)
	methods := []struct {
		name  string
		cells int
		build func() (phasedKernel, error)
	}{
		{"LB2D", side2 * side2, func() (phasedKernel, error) {
			return lbm.NewSolver2D(side2, side2, kernelPhaseParams(), flue)
		}},
		{"FD2D", side2 * side2, func() (phasedKernel, error) {
			return fd.NewSolver2D(side2, side2, kernelPhaseParams(), flue)
		}},
		{"LB3D", side3 * side3 * side3, func() (phasedKernel, error) {
			return lbm.NewSolver3D(side3, side3, side3, kernelPhaseParams(), duct)
		}},
		{"FD3D", side3 * side3 * side3, func() (phasedKernel, error) {
			return fd.NewSolver3D(side3, side3, side3, kernelPhaseParams(), duct)
		}},
	}
	for _, m := range methods {
		probe, err := m.build()
		if err != nil {
			b.Fatal(err)
		}
		for ph := 0; ph < probe.Phases(); ph++ {
			b.Run(fmt.Sprintf("%s/p%d", m.name, ph), func(b *testing.B) {
				s, err := m.build()
				if err != nil {
					b.Fatal(err)
				}
				s.SetWorkers(1)
				var timed time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for p := 0; p < s.Phases(); p++ {
						if p != ph {
							s.Compute(p)
							continue
						}
						t0 := time.Now()
						s.Compute(p)
						timed += time.Since(t0)
					}
				}
				b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N)/float64(m.cells), "ns/cell")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 5-8: 2D efficiency and speedup versus subregion size.

func benchFig2D(b *testing.B, method string, speedup bool) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		if speedup {
			last, err = perf.FigSpeedup2D(method)
		} else {
			last, err = perf.FigEfficiency2D(method)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline metrics: the (5x4) curve at sqrt(N) = 100 and 300.
	curve := last[len(last)-1].Points
	b.ReportMetric(curve[4].Y, "at100")
	b.ReportMetric(curve[len(curve)-1].Y, "at300")
}

func BenchmarkFig5EfficiencyLB2D(b *testing.B) { benchFig2D(b, perf.LB2D, false) }
func BenchmarkFig6SpeedupLB2D(b *testing.B)    { benchFig2D(b, perf.LB2D, true) }
func BenchmarkFig7EfficiencyFD2D(b *testing.B) { benchFig2D(b, perf.FD2D, false) }
func BenchmarkFig8SpeedupFD2D(b *testing.B)    { benchFig2D(b, perf.FD2D, true) }

// ---------------------------------------------------------------------------
// Figure 9: scaled problem, 2D versus 3D on the shared bus.

func BenchmarkFig9Efficiency2Dvs3D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	p20 := len(last[0].Points) - 1
	b.ReportMetric(last[0].Points[p20].Y, "2D-P20")
	b.ReportMetric(last[1].Points[p20].Y, "3D-P20")
}

// ---------------------------------------------------------------------------
// Figures 10-11: 3D efficiency and network-bound speedup.

func BenchmarkFig10Efficiency3D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := last[0].Points
	b.ReportMetric(pts[len(pts)-1].Y, "2x2x2-at40")
}

func BenchmarkFig11Speedup3D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	// The network bottleneck: the finest decomposition's best speedup.
	best := 0.0
	for _, p := range last[len(last)-1].Points {
		if p.Y > best {
			best = p.Y
		}
	}
	b.ReportMetric(best, "best-speedup")
}

// ---------------------------------------------------------------------------
// Figures 12-13: the closed-form model.

func BenchmarkFig12ModelEfficiency2D(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		last = perf.Fig12()
	}
	b.ReportMetric(last[3].Points[4].Y, "P20-at100")
}

func BenchmarkFig13ModelEfficiencyVsP(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		last = perf.Fig13()
	}
	n2 := len(last[0].Points) - 1
	b.ReportMetric(last[0].Points[n2].Y, "2D-P20")
	b.ReportMetric(last[1].Points[n2].Y, "3D-P20")
}

// ---------------------------------------------------------------------------
// Section 5.1: migration cost, measured through the real protocol.

func BenchmarkMigrationOverhead(b *testing.B) {
	d, err := decomp.New2D(2, 2, 32, 24, decomp.Full)
	if err != nil {
		b.Fatal(err)
	}
	d.PeriodicX = true
	par := fluid.DefaultParams()
	par.Nu = 0.1
	par.ForceX = 1e-5
	var protocol time.Duration
	for i := 0; i < b.N; i++ {
		cfg := &core.Config2D{Method: core.MethodLB, Par: par, Mask: fluid.ChannelMask2D(32, 24), D: d}
		sf, err := syncfile.New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sf.Poll = time.Millisecond
		job, _, err := core.NewJob2D(cfg, core.HubFactory(), sf, 60)
		if err != nil {
			b.Fatal(err)
		}
		job.Start()
		t0 := time.Now()
		if err := job.MigrateRanks([]int{1}, nil); err != nil {
			b.Fatal(err)
		}
		protocol += time.Since(t0)
		if err := job.WaitDone(); err != nil {
			b.Fatal(err)
		}
		job.Shutdown()
	}
	b.ReportMetric(protocol.Seconds()/float64(b.N), "protocol-s")
	b.ReportMetric(model.MigrationOverhead(30, 45*60), "paper-frac")
}

// ---------------------------------------------------------------------------
// Appendix C ablation: FCFS versus strict-order communication.

func BenchmarkAblationFCFSvsStrictOrder(b *testing.B) {
	var fcfs, strict float64
	for i := 0; i < b.N; i++ {
		var err error
		fcfs, strict, err = perf.AblationFCFS(10, 120, 0.1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(strict/fcfs, "strict/fcfs")
}

// ---------------------------------------------------------------------------
// Appendix E ablation: array lengths near multiples of the 4096-byte page
// size versus the padded lengths AvoidPageResonance produces. On the
// paper's HP9000/700s the resonant length halved the speed; the metric
// shows what this machine's prefetcher does with the same access pattern.

func BenchmarkAblationArrayPadding(b *testing.B) {
	const rows, cols = 512, 512 // 512*8 bytes per row = exactly one page
	traverse := func(stride int, data []float64) float64 {
		// Column-major walk: consecutive accesses are one stride apart,
		// the pattern that resonates with page-aligned rows.
		s := 0.0
		for x := 0; x < cols; x++ {
			for y := 0; y < rows; y++ {
				s += data[y*stride+x]
			}
		}
		return s
	}
	b.Run("resonant", func(b *testing.B) {
		data := make([]float64, rows*cols)
		sink := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += traverse(cols, data)
		}
		_ = sink
		b.ReportMetric(float64(rows*cols)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
	})
	b.Run("padded", func(b *testing.B) {
		stride := grid.AvoidPageResonance(cols)
		data := make([]float64, rows*stride)
		sink := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += traverse(stride, data)
		}
		_ = sink
		b.ReportMetric(float64(rows*cols)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
	})
}

// ---------------------------------------------------------------------------
// Real concurrency: actual speedup of the goroutine-parallel driver over
// the sequential executor on this machine (not a paper figure, but the
// modern analogue of the whole exercise).

func BenchmarkParallelDriverRealSpeedup(b *testing.B) {
	mkCfg := func(st decomp.Stencil, jx, jy int) *core.Config2D {
		d, err := decomp.New2D(jx, jy, 256, 256, st)
		if err != nil {
			b.Fatal(err)
		}
		d.PeriodicX = true
		par := fluid.DefaultParams()
		par.Nu = 0.1
		par.ForceX = 1e-6
		return &core.Config2D{Method: core.MethodLB, Par: par, Mask: fluid.ChannelMask2D(256, 256), D: d}
	}
	const steps = 10
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RunSequential2D(mkCfg(decomp.Full, 4, 2), steps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-8workers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunParallel2D(mkCfg(decomp.Full, 4, 2), steps, core.HubFactory()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Transport microbenchmarks: the custom messaging layer.

func BenchmarkHaloExchangeRoundTrip(b *testing.B) {
	for _, l := range []int{50, 100, 300} {
		b.Run(fmt.Sprintf("side-%d", l), func(b *testing.B) {
			// One LB halo message pack/unpack pair at side length l.
			par := fluid.DefaultParams()
			m := fluid.ChannelMask2D(l, l)
			s, err := lbm.NewSolver2D(l, l, par, func(x, y int) fluid.CellType { return m.At(x, y) })
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]float64, 0, 4*l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.Pack(0, decomp.East, buf[:0])
				s.Unpack(0, decomp.West, buf)
			}
			b.SetBytes(int64(8 * len(buf)))
		})
	}
}

// BenchmarkTransportExchange is one halo exchange between two ranks over
// a transport: each rank sends two 128-value frames to the other, flushes
// and receives two, as each rank of a two-rank lattice periodic in x does
// in every exchanging phase. allocs/op counts both ranks.
func BenchmarkTransportExchange(b *testing.B) {
	for _, tc := range []struct {
		name string
		open func(b *testing.B) (msg.Transport, msg.Transport)
	}{
		{"hub", func(b *testing.B) (msg.Transport, msg.Transport) {
			hub := msg.NewHub()
			return hub.Join(0), hub.Join(1)
		}},
		{"tcp", func(b *testing.B) (msg.Transport, msg.Transport) {
			reg, err := registry.New(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			t0, err := msg.NewTCP(0, 0, reg)
			if err != nil {
				b.Fatal(err)
			}
			t1, err := msg.NewTCP(1, 0, reg)
			if err != nil {
				t0.Close()
				b.Fatal(err)
			}
			return t0, t1
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			t0, t1 := tc.open(b)
			defer t0.Close()
			defer t1.Close()
			// exchanges runs n exchanges from t's side; Close unblocks a
			// side whose peer failed.
			exchanges := func(t msg.Transport, to, n int) error {
				data := make([]float64, 128)
				for i := range n {
					for dir := range 2 {
						if err := t.Send(msg.Message{To: to, Step: i, Dir: dir, Data: data}); err != nil {
							return err
						}
					}
					if err := t.Flush(); err != nil {
						return err
					}
					for range 2 {
						if _, err := t.Recv(); err != nil {
							return err
						}
					}
				}
				return nil
			}
			errc := make(chan error, 1)
			run := func(n int) {
				go func() { errc <- exchanges(t1, 0, n) }()
				if err := exchanges(t0, 1, n); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			}
			run(1) // connects the TCP pair outside the timing
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/exchange")
		})
	}
}

// BenchmarkBusSimulation measures the discrete-event engine itself.
func BenchmarkBusSimulation(b *testing.B) {
	d, err := decomp.New2D(5, 4, 500, 400, decomp.Full)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := perf.Build2D(d, perf.LB2D, perf.PaperHosts(20))
	if err != nil {
		b.Fatal(err)
	}
	bus := netsim.DefaultEthernet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perf.Run(&perf.Spec{Workers: specs, Steps: 20, Bus: bus}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Extensions: the conclusion's network outlook and the section-1.1
// load-balancing comparison.

func BenchmarkFutureNetworks(b *testing.B) {
	var last []perf.Series
	for i := 0; i < b.N; i++ {
		var err error
		last, err = perf.FutureNetworks()
		if err != nil {
			b.Fatal(err)
		}
	}
	at16 := func(s perf.Series) float64 {
		for _, p := range s.Points {
			if p.X == 16 {
				return p.Y
			}
		}
		return 0
	}
	b.ReportMetric(at16(last[0]), "bus-P16")
	b.ReportMetric(at16(last[1]), "switch-P16")
	b.ReportMetric(at16(last[3]), "atm-P16")
}

func BenchmarkDynamicVsMigration(b *testing.B) {
	var ig, mig, dyn float64
	for i := 0; i < b.N; i++ {
		var err error
		ig, mig, dyn, err = perf.DynamicVsMigration(10, 120, 5000, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ig, "ignore")
	b.ReportMetric(mig, "migrate")
	b.ReportMetric(dyn, "dynamic")
}

// ---------------------------------------------------------------------------
// Scheduler layer: one whole farm replay under EASY backfill with a queue
// hundreds deep, so nearly every scheduling round scans it for backfill
// candidates. No simulation runs (NullWorkload); the cost is the
// scheduling rounds themselves — reservation scans, step pricing and the
// EASY shadow walk.

// schedBenchSpec is nine tenants of 24 jobs, one shape each, arriving
// faster than a 100-host pool drains them, under a reclaim storm.
func schedBenchSpec() *workload.Spec {
	cohort := func(method string, jx, jy, jz, side int) workload.Cohort {
		return workload.Cohort{
			Name:     fmt.Sprintf("%s-%dx%dx%d", method, jx, jy, jz),
			Arrivals: workload.Arrivals{Process: workload.Gamma, Shape: 100, MeanGap: 45 * time.Second},
			Jobs: workload.JobDist{
				Shapes:  []workload.ShapeChoice{{Method: method, JX: jx, JY: jy, JZ: jz}},
				SideMin: side,
				Steps:   workload.StepsDist{Median: 4000, Sigma: 0.05},
			},
			MaxJobs: 24,
		}
	}
	return &workload.Spec{
		Name:    "sched-bench",
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

// quietPool is a pool of n715 715/50s, n720 720s and n710 710s whose
// users have been idle for half an hour.
func quietPool(n715, n720, n710 int) *cluster.Cluster {
	c := &cluster.Cluster{}
	add := func(prefix string, n int, m cluster.Model) {
		for i := 0; i < n; i++ {
			c.Hosts = append(c.Hosts, cluster.NewHost(fmt.Sprintf("%s-%02d", prefix, i), m))
		}
	}
	add("hp715", n715, cluster.HP715)
	add("hp720", n720, cluster.HP720)
	add("hp710", n710, cluster.HP710)
	c.Advance(30 * time.Minute)
	return c
}

// BenchmarkSchedulingRound replays schedBenchSpec on 100 hosts in the
// paper pool's proportions, FIFO with EASY backfill and the compute
// timer, and reports the scheduler's cost per job. allocs/op counts a
// whole replay.
func BenchmarkSchedulingRound(b *testing.B) {
	spec := schedBenchSpec()
	jobs, err := workload.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	every, scenario, err := spec.Scenario.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sched.New(quietPool(64, 24, 12), sched.FIFO, 1)
		s.Timer = sched.ComputeTimer
		s.Backfill = sched.BackfillEASY
		s.Scenario, s.ScenarioEvery = scenario, every
		for _, js := range jobs {
			if err := s.Submit(js, nil); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
		sum, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(sum.Jobs) != len(jobs) {
			b.Fatalf("%d of %d jobs finished", len(sum.Jobs), len(jobs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/job")
}
