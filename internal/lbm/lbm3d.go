package lbm

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/pool"
)

// Q3 is the number of D3Q15 populations: rest + 6 axis + 8 cube diagonals.
const Q3 = 15

// D3Q15 lattice vectors and weights. Exactly five populations cross each
// face of a box subregion (the axis vector plus four diagonals), which is
// why the paper's 3D lattice Boltzmann method communicates 5 variables per
// boundary node.
var (
	cx3 = [Q3]int{0, 1, -1, 0, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1, -1}
	cy3 = [Q3]int{0, 0, 0, 1, -1, 0, 0, 1, 1, -1, -1, 1, 1, -1, -1}
	cz3 = [Q3]int{0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1}
	w3  = [Q3]float64{2.0 / 9,
		1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72, 1.0 / 72}
	opp3 [Q3]int
)

func init() {
	for i := 0; i < Q3; i++ {
		for j := 0; j < Q3; j++ {
			if cx3[j] == -cx3[i] && cy3[j] == -cy3[i] && cz3[j] == -cz3[i] {
				opp3[i] = j
				break
			}
		}
	}
}

// Solver3D integrates one box subregion with the D3Q15 lattice Boltzmann
// method.
//
// Halo exchange uses ghost-fill sweeps ordered x, then y, then z: each
// sweep sends, per face, the five populations crossing it, with the strip
// extended over the ghost layers of previously swept axes so that
// populations crossing subregion edges and corners propagate through two or
// three face messages. After the sweeps every ghost node holds the relaxed
// populations pointing into this subregion and the shift step is purely
// local. The (P x 1 x 1) pencil decompositions of figure 9 degenerate to a
// single exchange per step, matching the paper's one-message count; fuller
// 3D lattices pay one message per face per step.
//
// When Workers > 1 the inner phases are cut into z-plane slabs on the
// shared pool, one pool run (one barrier) per kernel, the shift of all
// fifteen populations included; writes are disjoint by plane and per-node
// arithmetic is unchanged, so fields stay bit-identical to the serial
// sweep.
type Solver3D struct {
	Par fluid.Params
	Tau float64

	Mask func(x, y, z int) fluid.CellType

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	Workers int

	F  [Q3]*grid.Field3D
	nF [Q3]*grid.Field3D

	Rho, Vx, Vy, Vz *grid.Field3D

	scratch []float64

	// Static per-node structure cached at construction (see Solver2D).
	cells   []fluid.CellType
	rowOpen []bool // indexed z*ny + y
	plan    *filter.Plan3D

	par                       pool.Runner
	relaxFn, shiftFn, macroFn func(lo, hi int)
	runFn                     filter.RunFunc
	xbuf                      []float64

	// Filter field list built once at construction so the steady-state
	// step allocates nothing (see Solver2D).
	filterFields []*grid.Field3D
}

// NewSolver3D allocates a D3Q15 solver initialized to equilibrium at
// rho = Rho0, V = 0.
func NewSolver3D(nx, ny, nz int, par fluid.Params, mask func(x, y, z int) fluid.CellType) (*Solver3D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("lbm: nil mask")
	}
	s := &Solver3D{
		Par:     par,
		Tau:     TauFromNu(par.Nu),
		Mask:    mask,
		Rho:     grid.NewField3D(nx, ny, nz, 1),
		Vx:      grid.NewField3D(nx, ny, nz, 1),
		Vy:      grid.NewField3D(nx, ny, nz, 1),
		Vz:      grid.NewField3D(nx, ny, nz, 1),
		scratch: make([]float64, nx*ny*nz),
		cells:   make([]fluid.CellType, nx*ny*nz),
		rowOpen: make([]bool, ny*nz),
		plan:    filter.NewPlan3D(nx, ny, nz, mask),
	}
	s.filterFields = []*grid.Field3D{s.Rho, s.Vx, s.Vy, s.Vz}
	for i := 0; i < Q3; i++ {
		s.F[i] = grid.NewField3D(nx, ny, nz, 1)
		s.nF[i] = grid.NewField3D(nx, ny, nz, 1)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			open := true
			for x := 0; x < nx; x++ {
				c := mask(x, y, z)
				s.cells[(z*ny+y)*nx+x] = c
				if c != fluid.Interior {
					open = false
				}
			}
			s.rowOpen[z*ny+y] = open
		}
	}
	s.relaxFn = s.relaxPlanes
	s.shiftFn = s.shiftPlanes
	s.macroFn = s.macroPlanes
	s.runFn = s.run
	s.Rho.Fill(par.Rho0)
	s.InitEquilibrium()
	return s, nil
}

// SetWorkers sets the intra-rank slab count.
func (s *Solver3D) SetWorkers(n int) { s.Workers = n }

func (s *Solver3D) run(n int, fn func(lo, hi int)) { s.par.Run(s.Workers, n, fn) }

// InitEquilibrium sets every interior fluid population to the equilibrium
// of the current fluid variables and zeroes ghost and wall populations,
// making closed boundaries exactly mass-neutral from step zero (see
// Solver2D.InitEquilibrium).
func (s *Solver3D) InitEquilibrium() {
	for z := -1; z <= s.Rho.NZ; z++ {
		for y := -1; y <= s.Rho.NY; y++ {
			for x := -1; x <= s.Rho.NX; x++ {
				ghost := x < 0 || x >= s.Rho.NX || y < 0 || y >= s.Rho.NY ||
					z < 0 || z >= s.Rho.NZ
				if ghost || s.Mask(x, y, z) == fluid.Wall {
					for i := 0; i < Q3; i++ {
						s.F[i].Set(x, y, z, 0)
					}
					continue
				}
				for i := 0; i < Q3; i++ {
					s.F[i].Set(x, y, z, feq3(i, s.Rho.At(x, y, z),
						s.Vx.At(x, y, z), s.Vy.At(x, y, z), s.Vz.At(x, y, z)))
				}
			}
		}
	}
}

// feq3 is the D3Q15 BGK equilibrium distribution.
func feq3(i int, rho, vx, vy, vz float64) float64 {
	return feq3v(i, rho, vx, vy, vz, float64(vx*vx)+float64(vy*vy)+float64(vz*vz))
}

// feq3v is feq3 with the speed-squared hoisted: the table-driven form for
// the cold paths, which the relax kernel unrolls (see feq2v).
func feq3v(i int, rho, vx, vy, vz, v2 float64) float64 {
	cu := float64(float64(cx3[i])*vx) + float64(float64(cy3[i])*vy) + float64(float64(cz3[i])*vz)
	return feqw(w3[i]*rho, cu, float64(1.5*v2))
}

// Phases returns the compute-phase count: relax, then one no-op phase per
// sweep axis (y, z), then shift+macroscopics+filter. The x-face exchange
// follows the relax phase.
func (s *Solver3D) Phases() int { return 4 }

// Exchanges reports whether an exchange follows the phase; ExchangeDirs
// says on which faces.
func (s *Solver3D) Exchanges(phase int) bool { return phase <= 2 }

// Face pairs exchanged after each compute phase, fixed at package level
// so ExchangeDirs stays allocation-free on the step path.
var (
	xFaces3 = []decomp.Dir3{decomp.West3, decomp.East3}
	yFaces3 = []decomp.Dir3{decomp.South3, decomp.North3}
	zFaces3 = []decomp.Dir3{decomp.Down3, decomp.Up3}
)

// ExchangeDirs returns the faces exchanged after the given phase: x faces
// after relax, then y faces, then z faces.
func (s *Solver3D) ExchangeDirs(phase int) []decomp.Dir3 {
	switch phase {
	case 0:
		return xFaces3
	case 1:
		return yFaces3
	case 2:
		return zFaces3
	}
	return nil
}

// Compute runs one compute phase. Phases 1 and 2 are pure exchange points.
func (s *Solver3D) Compute(phase int) {
	switch phase {
	case 0:
		s.relax()
	case 1, 2:
		// Sweep barriers: no local work, only the y/z face exchanges.
	case 3:
		s.shift()
		s.macroscopics()
		s.applyFilter()
	default:
		panic(fmt.Sprintf("lbm: invalid phase %d", phase))
	}
}

func (s *Solver3D) relax() { s.run(s.Rho.NZ, s.relaxFn) }

// relaxPlanes relaxes z-planes [z0, z1). All-Interior rows skip the
// cell-type dispatch; each node writes only its own populations. The
// population loop is unrolled with literal D3Q15 constants (see the
// package comment).
func (s *Solver3D) relaxPlanes(z0, z1 int) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0 || p.ForceZ != 0
	// Per-call constants: the inlet equilibrium, and the forcing term
	// 3 w_i (c_i . g) split as (3 w_i, c_i . g) around the per-node rho.
	var inlet, kw, cg [Q3]float64
	for i := 0; i < Q3; i++ {
		inlet[i] = feq3(i, p.InletRho, p.InletVx, p.InletVy, p.InletVz)
		kw[i] = 3 * w3[i]
		cg[i] = float64(float64(cx3[i])*p.ForceX) + float64(float64(cy3[i])*p.ForceY) + float64(float64(cz3[i])*p.ForceZ)
	}
	nx, ny := s.Rho.NX, s.Rho.NY
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			cells := s.cells[row : row+nx]
			// Row views of every field (see Solver2D.relaxRows).
			b, n := s.Rho.Idx(0, y, z), len(cells)
			f0, f1, f2 := s.F[0].Data()[b:][:n], s.F[1].Data()[b:][:n], s.F[2].Data()[b:][:n]
			f3, f4, f5 := s.F[3].Data()[b:][:n], s.F[4].Data()[b:][:n], s.F[5].Data()[b:][:n]
			f6, f7, f8 := s.F[6].Data()[b:][:n], s.F[7].Data()[b:][:n], s.F[8].Data()[b:][:n]
			f9, f10, f11 := s.F[9].Data()[b:][:n], s.F[10].Data()[b:][:n], s.F[11].Data()[b:][:n]
			f12, f13, f14 := s.F[12].Data()[b:][:n], s.F[13].Data()[b:][:n], s.F[14].Data()[b:][:n]
			rhos, vxs, vys, vzs := s.Rho.Data()[b:][:n], s.Vx.Data()[b:][:n], s.Vy.Data()[b:][:n], s.Vz.Data()[b:][:n]
			for j, c := range cells {
				if !open {
					switch c {
					case fluid.Wall:
						f1[j], f2[j] = f2[j], f1[j]
						f3[j], f4[j] = f4[j], f3[j]
						f5[j], f6[j] = f6[j], f5[j]
						f7[j], f14[j] = f14[j], f7[j]
						f8[j], f13[j] = f13[j], f8[j]
						f9[j], f12[j] = f12[j], f9[j]
						f10[j], f11[j] = f11[j], f10[j]
						continue
					case fluid.Inlet:
						for i := range s.F {
							s.F[i].Data()[b+j] = inlet[i]
						}
						continue
					case fluid.Outlet:
						vx, vy, vz := vxs[j], vys[j], vzs[j]
						for i := range s.F {
							s.F[i].Data()[b+j] = feq3(i, p.OutletRho, vx, vy, vz)
						}
						continue
					}
				}
				rho, vx, vy, vz := rhos[j], vxs[j], vys[j], vzs[j]
				u := float64(1.5 * (float64(vx*vx) + float64(vy*vy) + float64(vz*vz)))
				w0, w1, w7 := 2.0/9*rho, 1.0/9*rho, 1.0/72*rho
				r0 := bgk(f0[j], feqw(w0, float64(0*vx)+float64(0*vy)+float64(0*vz), u), invTau)
				r1 := bgk(f1[j], feqw(w1, float64(1*vx)+float64(0*vy)+float64(0*vz), u), invTau)
				r2 := bgk(f2[j], feqw(w1, float64(-1*vx)+float64(0*vy)+float64(0*vz), u), invTau)
				r3 := bgk(f3[j], feqw(w1, float64(0*vx)+float64(1*vy)+float64(0*vz), u), invTau)
				r4 := bgk(f4[j], feqw(w1, float64(0*vx)+float64(-1*vy)+float64(0*vz), u), invTau)
				r5 := bgk(f5[j], feqw(w1, float64(0*vx)+float64(0*vy)+float64(1*vz), u), invTau)
				r6 := bgk(f6[j], feqw(w1, float64(0*vx)+float64(0*vy)+float64(-1*vz), u), invTau)
				r7 := bgk(f7[j], feqw(w7, float64(1*vx)+float64(1*vy)+float64(1*vz), u), invTau)
				r8 := bgk(f8[j], feqw(w7, float64(1*vx)+float64(1*vy)+float64(-1*vz), u), invTau)
				r9 := bgk(f9[j], feqw(w7, float64(1*vx)+float64(-1*vy)+float64(1*vz), u), invTau)
				r10 := bgk(f10[j], feqw(w7, float64(1*vx)+float64(-1*vy)+float64(-1*vz), u), invTau)
				r11 := bgk(f11[j], feqw(w7, float64(-1*vx)+float64(1*vy)+float64(1*vz), u), invTau)
				r12 := bgk(f12[j], feqw(w7, float64(-1*vx)+float64(1*vy)+float64(-1*vz), u), invTau)
				r13 := bgk(f13[j], feqw(w7, float64(-1*vx)+float64(-1*vy)+float64(1*vz), u), invTau)
				r14 := bgk(f14[j], feqw(w7, float64(-1*vx)+float64(-1*vy)+float64(-1*vz), u), invTau)
				// One store per population, force included (see Solver2D).
				if forced {
					r1 += float64(kw[1] * rho * cg[1])
					r2 += float64(kw[2] * rho * cg[2])
					r3 += float64(kw[3] * rho * cg[3])
					r4 += float64(kw[4] * rho * cg[4])
					r5 += float64(kw[5] * rho * cg[5])
					r6 += float64(kw[6] * rho * cg[6])
					r7 += float64(kw[7] * rho * cg[7])
					r8 += float64(kw[8] * rho * cg[8])
					r9 += float64(kw[9] * rho * cg[9])
					r10 += float64(kw[10] * rho * cg[10])
					r11 += float64(kw[11] * rho * cg[11])
					r12 += float64(kw[12] * rho * cg[12])
					r13 += float64(kw[13] * rho * cg[13])
					r14 += float64(kw[14] * rho * cg[14])
				}
				f0[j], f1[j], f2[j], f3[j], f4[j] = r0, r1, r2, r3, r4
				f5[j], f6[j], f7[j], f8[j], f9[j] = r5, r6, r7, r8, r9
				f10[j], f11[j], f12[j], f13[j], f14[j] = r10, r11, r12, r13, r14
			}
		}
	}
}

// shift streams populations to interior targets, reading ghost sources
// filled by the three exchange sweeps. Targets are interior-only, so the
// z-plane slabs cover the whole write range, and one pool run streams
// every population: the phase pays one barrier.
func (s *Solver3D) shift() {
	s.run(s.Rho.NZ, s.shiftFn)
	for i := 0; i < Q3; i++ {
		s.F[i].Swap(s.nF[i])
	}
}

// shiftPlanes streams every population into its post-shift buffer on
// z-planes [z0, z1), one row copy dst(., y, z) = src(.-dx, y-dy, z-dz)
// at a time.
func (s *Solver3D) shiftPlanes(z0, z1 int) {
	nx, ny := s.Rho.NX, s.Rho.NY
	for i := 0; i < Q3; i++ {
		src, dst := s.F[i].Data(), s.nF[i].Data()
		dx, dy, dz := cx3[i], cy3[i], cz3[i]
		for z := z0; z < z1; z++ {
			for y := 0; y < ny; y++ {
				d, o := s.Rho.Idx(0, y, z), s.Rho.Idx(-dx, y-dy, z-dz)
				copy(dst[d:d+nx], src[o:o+nx])
			}
		}
	}
}

func (s *Solver3D) macroscopics() { s.run(s.Rho.NZ, s.macroFn) }

// macroPlanes recomputes the fluid variables on z-planes [z0, z1): the
// population sums of rho and momentum, unrolled in population order.
func (s *Solver3D) macroPlanes(z0, z1 int) {
	nx, ny := s.Rho.NX, s.Rho.NY
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			cells := s.cells[row : row+nx]
			// Row views of every field (see Solver2D.relaxRows).
			b, n := s.Rho.Idx(0, y, z), len(cells)
			f0, f1, f2 := s.F[0].Data()[b:][:n], s.F[1].Data()[b:][:n], s.F[2].Data()[b:][:n]
			f3, f4, f5 := s.F[3].Data()[b:][:n], s.F[4].Data()[b:][:n], s.F[5].Data()[b:][:n]
			f6, f7, f8 := s.F[6].Data()[b:][:n], s.F[7].Data()[b:][:n], s.F[8].Data()[b:][:n]
			f9, f10, f11 := s.F[9].Data()[b:][:n], s.F[10].Data()[b:][:n], s.F[11].Data()[b:][:n]
			f12, f13, f14 := s.F[12].Data()[b:][:n], s.F[13].Data()[b:][:n], s.F[14].Data()[b:][:n]
			rhos, vxs, vys, vzs := s.Rho.Data()[b:][:n], s.Vx.Data()[b:][:n], s.Vy.Data()[b:][:n], s.Vz.Data()[b:][:n]
			for j, c := range cells {
				if !open && c == fluid.Wall {
					rhos[j], vxs[j], vys[j], vzs[j] = s.Par.Rho0, 0, 0, 0
					continue
				}
				a0, a1, a2, a3, a4 := f0[j], f1[j], f2[j], f3[j], f4[j]
				a5, a6, a7, a8, a9 := f5[j], f6[j], f7[j], f8[j], f9[j]
				a10, a11, a12, a13, a14 := f10[j], f11[j], f12[j], f13[j], f14[j]
				rho := 0 + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11 + a12 + a13 + a14
				mx := 0 + float64(a0*0) + float64(a1*1) + float64(a2*-1) + float64(a3*0) + float64(a4*0) +
					float64(a5*0) + float64(a6*0) + float64(a7*1) + float64(a8*1) + float64(a9*1) +
					float64(a10*1) + float64(a11*-1) + float64(a12*-1) + float64(a13*-1) + float64(a14*-1)
				my := 0 + float64(a0*0) + float64(a1*0) + float64(a2*0) + float64(a3*1) + float64(a4*-1) +
					float64(a5*0) + float64(a6*0) + float64(a7*1) + float64(a8*1) + float64(a9*-1) +
					float64(a10*-1) + float64(a11*1) + float64(a12*1) + float64(a13*-1) + float64(a14*-1)
				mz := 0 + float64(a0*0) + float64(a1*0) + float64(a2*0) + float64(a3*0) + float64(a4*0) +
					float64(a5*1) + float64(a6*-1) + float64(a7*1) + float64(a8*-1) + float64(a9*1) +
					float64(a10*-1) + float64(a11*1) + float64(a12*-1) + float64(a13*1) + float64(a14*-1)
				rhos[j], vxs[j], vys[j], vzs[j] = rho, mx/rho, my/rho, mz/rho
			}
		}
	}
}

func (s *Solver3D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
}

// crossingTab3 caches, per face direction, the population indices with a
// positive velocity component along it — Pack/Unpack run in the hot
// exchange path and must not allocate.
var crossingTab3 = func() (tab [6][]int) {
	for _, dir := range decomp.Dirs3() {
		dx, dy, dz := dir.Delta()
		for i := 1; i < Q3; i++ {
			if cx3[i]*dx+cy3[i]*dy+cz3[i]*dz > 0 {
				tab[dir] = append(tab[dir], i)
			}
		}
	}
	return tab
}()

// crossing3 returns the population indices with a positive velocity
// component along face direction dir.
func crossing3(dir decomp.Dir3) []int { return crossingTab3[dir] }

// sweepRegion returns the send (interior) or receive (ghost) strip for a
// face, extended over the ghost layers of the axes swept before it.
func (s *Solver3D) sweepRegion(dir decomp.Dir3, interior bool) halo.Region3D {
	var r halo.Region3D
	if interior {
		r = halo.SendInterior3D(s.F[0], dir)
	} else {
		r = halo.RecvGhost3D(s.F[0], dir)
	}
	switch dir {
	case decomp.South3, decomp.North3: // y sweep: extend over x ghosts
		r.X0, r.NX = r.X0-1, r.NX+2
	case decomp.Down3, decomp.Up3: // z sweep: extend over x and y ghosts
		r.X0, r.NX = r.X0-1, r.NX+2
		r.Y0, r.NY = r.Y0-1, r.NY+2
	}
	return r
}

// Pack extracts the populations crossing face dir from the (extended)
// interior strip: the data the neighbour's ghost layer needs before it can
// shift.
func (s *Solver3D) Pack(phase int, dir decomp.Dir3, buf []float64) []float64 {
	r := s.sweepRegion(dir, true)
	for _, i := range crossing3(dir) {
		buf = halo.Extract3D(s.F[i], r, buf)
	}
	return buf
}

// Unpack stores populations received from the neighbour at dir into the
// (extended) ghost strip on that side. The sender packed the populations
// crossing its Opposite(dir) face, which point into this subregion.
func (s *Solver3D) Unpack(phase int, dir decomp.Dir3, buf []float64) {
	r := s.sweepRegion(dir, false)
	for _, i := range crossing3(dir.Opposite()) {
		buf = halo.Inject3D(s.F[i], r, buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("lbm: %d leftover values after 3D unpack", len(buf)))
	}
}

// MsgLen returns the message length for a face: 5 populations per strip
// node.
func (s *Solver3D) MsgLen(phase int, dir decomp.Dir3) int {
	return len(crossing3(dir)) * s.sweepRegion(dir, true).Len()
}

// StepSerial advances a standalone solver one step with periodic wrapping,
// reusing the solver's exchange buffer so the steady-state step does not
// allocate.
func (s *Solver3D) StepSerial(px, py, pz bool) {
	for ph := 0; ph < s.Phases(); ph++ {
		s.Compute(ph)
		if !s.Exchanges(ph) {
			continue
		}
		for _, d := range s.ExchangeDirs(ph) {
			var wraps bool
			switch d {
			case decomp.West3, decomp.East3:
				wraps = px
			case decomp.South3, decomp.North3:
				wraps = py
			case decomp.Down3, decomp.Up3:
				wraps = pz
			}
			if !wraps {
				continue
			}
			s.xbuf = s.Pack(ph, d, s.xbuf[:0])
			s.Unpack(ph, d.Opposite(), s.xbuf)
		}
	}
}
