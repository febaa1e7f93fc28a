// Package lbm implements the lattice Boltzmann method of section 6 (and
// Skordos, Phys. Rev. E 48:4823): a relaxation algorithm that represents
// the fluid by population variables F_i alongside the traditional fluid
// variables rho, Vx, Vy. Each cycle the populations are relaxed toward a
// local equilibrium computed from the (filtered) fluid variables, shifted
// to the nearest neighbours of each node, and the fluid variables are
// recomputed from the shifted populations. The per-cycle sequence is the
// paper's:
//
//	Relax F_i                     (inner)
//	Shift F_i                     (inner)
//	Communicate: send/recv F_i    (boundary)
//	Calculate rho, Vx, Vy from F_i (inner)
//	Filter rho, Vx, Vy            (inner)
//
// One message per neighbour per step; in 2D only the three D2Q9
// populations crossing each side are communicated (3 variables per
// boundary node), in 3D the five D3Q15 populations crossing each face
// (5 variables per node) — the counts of section 6 that drive the
// method's communication behaviour in the performance figures.
//
// The lattice is D2Q9 in two dimensions (D3Q15 in three), with BGK
// relaxation; solid walls use full-way bounce-back, which places the
// physical wall half-way between the wall node and the adjacent fluid node.
//
// Every inner phase is per-cell independent, so a rank's subregion is
// additionally cut into row slabs updated concurrently by the shared
// worker pool when Workers > 1; writes are disjoint by row and no node's
// arithmetic changes, so the fields stay bit-identical to the serial
// sweep at any worker count (see internal/pool). Relax, shift and the
// macroscopic update are one pool run, so one barrier, each: the shift
// streams all populations in a single row-slab pass rather than one pass
// per population.
//
// The hot loops follow the kernel rules of DESIGN.md: each row takes its
// base index into the fields' flat storage once, and the population loops
// of relax and macroscopics are unrolled with literal lattice constants,
// every term kept in the table-driven order, so the compiler applies only
// IEEE-exact folds (x*1 -> x, x*-1 -> -x) and the fields stay
// bit-identical to the table-driven formulas. Products that feed a sum are
// wrapped in explicit float64 conversions, which the Go spec forbids
// fusing into a multiply-add, so the kernels round identically on every
// GOARCH.
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

// Q2 is the number of D2Q9 populations.
const Q2 = 9

// D2Q9 lattice vectors. Index 0 is the rest population; 1-4 are the axis
// directions; 5-8 the diagonals.
var (
	cx2 = [Q2]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	cy2 = [Q2]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	w2  = [Q2]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	opp2 = [Q2]int{0, 3, 4, 1, 2, 7, 8, 5, 6}
)

// outgoing2 lists, for each 2D direction, the population indices whose
// lattice vector points into that direction's neighbour: the populations
// that must be communicated across that side or corner.
var outgoing2 = map[decomp.Dir][]int{
	decomp.East:      {1, 5, 8},
	decomp.West:      {3, 6, 7},
	decomp.North:     {2, 5, 6},
	decomp.South:     {4, 7, 8},
	decomp.NorthEast: {5},
	decomp.NorthWest: {6},
	decomp.SouthWest: {7},
	decomp.SouthEast: {8},
}

// NuFromTau returns the kinematic viscosity of the BGK lattice with
// relaxation time tau: nu = (tau - 1/2) / 3 (dx = dt = 1, c_s^2 = 1/3).
func NuFromTau(tau float64) float64 { return (tau - 0.5) / 3 }

// TauFromNu is the inverse of NuFromTau.
func TauFromNu(nu float64) float64 { return float64(3*nu) + 0.5 }

// Solver2D integrates one subregion with the D2Q9 lattice Boltzmann method.
type Solver2D struct {
	Par fluid.Params
	Tau float64 // BGK relaxation time, from Par.Nu

	Mask func(x, y int) fluid.CellType

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	// Results are bit-identical at every value.
	Workers int

	F  [Q2]*grid.Field2D // populations, ghost depth 1
	nF [Q2]*grid.Field2D // post-shift buffers

	Rho, Vx, Vy *grid.Field2D // fluid variables (ghost layers unused)

	scratch []float64

	// Static per-node structure, cached at construction so the hot loops
	// never call the mask closure: the interior cell types and, per row,
	// whether every cell is plain Interior (the branch-free fast path).
	cells   []fluid.CellType
	rowOpen []bool
	plan    *filter.Plan2D

	// Parallel-kernel machinery: the pool runner, the prebuilt range
	// closures (built once so the steady-state step allocates nothing)
	// and the reused exchange buffer.
	par                       pool.Runner
	relaxFn, shiftFn, macroFn func(lo, hi int)
	runFn                     filter.RunFunc
	xbuf                      []float64

	// Filter field list built once at construction so the steady-state
	// step allocates nothing; Swap exchanges field contents, never these
	// pointers, so it stays valid across steps.
	filterFields []*grid.Field2D
}

// NewSolver2D allocates a D2Q9 solver for an nx-by-ny subregion,
// initialized to equilibrium at rho = Rho0, V = 0. The LB sound speed is
// fixed at c_s = 1/sqrt(3); Par.Cs is ignored by this method.
func NewSolver2D(nx, ny int, par fluid.Params, mask func(x, y int) fluid.CellType) (*Solver2D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("lbm: nil mask")
	}
	s := &Solver2D{
		Par:     par,
		Tau:     TauFromNu(par.Nu),
		Mask:    mask,
		Rho:     grid.NewField2D(nx, ny, 1),
		Vx:      grid.NewField2D(nx, ny, 1),
		Vy:      grid.NewField2D(nx, ny, 1),
		scratch: make([]float64, nx*ny),
		cells:   make([]fluid.CellType, nx*ny),
		rowOpen: make([]bool, ny),
		plan:    filter.NewPlan2D(nx, ny, mask),
	}
	s.filterFields = []*grid.Field2D{s.Rho, s.Vx, s.Vy}
	for i := 0; i < Q2; i++ {
		s.F[i] = grid.NewField2D(nx, ny, 1)
		s.nF[i] = grid.NewField2D(nx, ny, 1)
	}
	for y := 0; y < ny; y++ {
		open := true
		for x := 0; x < nx; x++ {
			c := mask(x, y)
			s.cells[y*nx+x] = c
			if c != fluid.Interior {
				open = false
			}
		}
		s.rowOpen[y] = open
	}
	s.relaxFn = s.relaxRows
	s.shiftFn = s.shiftRows
	s.macroFn = s.macroRows
	s.runFn = s.run
	s.Rho.Fill(par.Rho0)
	s.InitEquilibrium()
	return s, nil
}

// SetWorkers sets the intra-rank slab count (the core setup threads the
// per-rank budget through here).
func (s *Solver2D) SetWorkers(n int) { s.Workers = n }

// run executes fn over [0, n) on the shared pool with the configured
// worker count.
func (s *Solver2D) run(n int, fn func(lo, hi int)) { s.par.Run(s.Workers, n, fn) }

// InitEquilibrium sets every interior fluid population to the equilibrium
// of the current Rho, Vx, Vy fields, and zeroes ghost and wall populations.
// Zero ghosts and empty walls make closed domain boundaries exactly
// mass-neutral: wall nodes carry only populations in bounce-back transit,
// receive nothing from beyond the domain, and reflect nothing spurious, so
// total population mass is conserved to machine precision from step zero.
// Ghosts on periodic or seam sides are overwritten by the exchange before
// they are ever read.
func (s *Solver2D) InitEquilibrium() {
	for y := -1; y <= s.Rho.NY; y++ {
		for x := -1; x <= s.Rho.NX; x++ {
			ghost := x < 0 || x >= s.Rho.NX || y < 0 || y >= s.Rho.NY
			if ghost || s.Mask(x, y) == fluid.Wall {
				for i := 0; i < Q2; i++ {
					s.F[i].Set(x, y, 0)
				}
				continue
			}
			for i := 0; i < Q2; i++ {
				s.F[i].Set(x, y, feq2(i, s.Rho.At(x, y), s.Vx.At(x, y), s.Vy.At(x, y)))
			}
		}
	}
}

// feq2 is the D2Q9 BGK equilibrium distribution.
func feq2(i int, rho, vx, vy float64) float64 {
	return feq2v(i, rho, vx, vy, float64(vx*vx)+float64(vy*vy))
}

// feq2v is feq2 with the speed-squared hoisted. It is the table-driven
// form of the equilibrium, for the cold paths (initialization, inlet and
// outlet nodes); the relax kernel unrolls the same expression.
func feq2v(i int, rho, vx, vy, v2 float64) float64 {
	cu := float64(float64(cx2[i])*vx) + float64(float64(cy2[i])*vy)
	return feqw(w2[i]*rho, cu, float64(1.5*v2))
}

// feqw is the BGK equilibrium w rho (1 + 3 cu + 4.5 cu^2 - 1.5 v^2) of
// one population, with the weight already applied (wr = w*rho) and the
// speed term already scaled (u = 1.5*v^2): both are shared by several
// populations and computing them once is bit-exact. cu is c_i . v.
func feqw(wr, cu, u float64) float64 {
	return float64(wr * (1 + float64(3*cu) + float64(4.5*cu*cu) - u))
}

// bgk relaxes population f toward its equilibrium feq.
func bgk(f, feq, invTau float64) float64 {
	return f + float64((feq-f)*invTau)
}

// Phases returns the number of compute phases per step: relax+shift (with
// exchange after), then macroscopics+filter.
func (s *Solver2D) Phases() int { return 2 }

// Exchanges reports whether a halo exchange follows the phase; only the
// relax+shift phase communicates (one message per neighbour per step).
func (s *Solver2D) Exchanges(phase int) bool { return phase == 0 }

// Compute runs one compute phase.
func (s *Solver2D) Compute(phase int) {
	switch phase {
	case 0:
		s.relax()
		s.shift()
	case 1:
		s.macroscopics()
		s.applyFilter()
	default:
		panic(fmt.Sprintf("lbm: invalid phase %d", phase))
	}
}

// relax applies BGK relaxation toward the equilibrium of the (filtered)
// fluid variables at every interior node, bounce-back at walls, and
// equilibrium forcing at inlets and outlets. A body force enters as the
// standard first-order population shift 3 w_i rho (c_i . g).
func (s *Solver2D) relax() { s.run(s.Rho.NY, s.relaxFn) }

// relaxRows relaxes rows [y0, y1). All-Interior rows skip the cell-type
// dispatch entirely; mixed rows branch on the cached cell types. Each
// node writes only its own populations, so slabs are write-disjoint.
func (s *Solver2D) relaxRows(y0, y1 int) {
	p := s.Par
	invTau := 1 / s.Tau
	forced := p.ForceX != 0 || p.ForceY != 0
	// Per-call constants: the inlet equilibrium, and the forcing term
	// 3 w_i (c_i . g) split as (3 w_i, c_i . g) around the per-node rho.
	var inlet, kw, cg [Q2]float64
	for i := 0; i < Q2; i++ {
		inlet[i] = feq2(i, p.InletRho, p.InletVx, p.InletVy)
		kw[i] = 3 * w2[i]
		cg[i] = float64(float64(cx2[i])*p.ForceX) + float64(float64(cy2[i])*p.ForceY)
	}
	nx := s.Rho.NX
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		cells := s.cells[y*nx : (y+1)*nx]
		// Row views of every field: one base index per row, and equal
		// lengths let the compiler drop the per-node bounds checks.
		b, n := s.Rho.Idx(0, y), len(cells)
		f0, f1, f2 := s.F[0].Data()[b:][:n], s.F[1].Data()[b:][:n], s.F[2].Data()[b:][:n]
		f3, f4, f5 := s.F[3].Data()[b:][:n], s.F[4].Data()[b:][:n], s.F[5].Data()[b:][:n]
		f6, f7, f8 := s.F[6].Data()[b:][:n], s.F[7].Data()[b:][:n], s.F[8].Data()[b:][:n]
		rhos, vxs, vys := s.Rho.Data()[b:][:n], s.Vx.Data()[b:][:n], s.Vy.Data()[b:][:n]
		for j, c := range cells {
			if !open {
				switch c {
				case fluid.Wall:
					// Full-way bounce-back: reflect the populations that
					// streamed into the wall during the previous step.
					f1[j], f3[j] = f3[j], f1[j]
					f2[j], f4[j] = f4[j], f2[j]
					f5[j], f7[j] = f7[j], f5[j]
					f6[j], f8[j] = f8[j], f6[j]
					continue
				case fluid.Inlet:
					for i := range s.F {
						s.F[i].Data()[b+j] = inlet[i]
					}
					continue
				case fluid.Outlet:
					// Prescribed density, local velocity: anchors the mean
					// pressure while letting flow leave.
					vx, vy := vxs[j], vys[j]
					for i := range s.F {
						s.F[i].Data()[b+j] = feq2(i, p.OutletRho, vx, vy)
					}
					continue
				}
			}
			rho, vx, vy := rhos[j], vxs[j], vys[j]
			u := float64(1.5 * (float64(vx*vx) + float64(vy*vy)))
			w0, w1, w5 := 4.0/9*rho, 1.0/9*rho, 1.0/36*rho
			r0 := bgk(f0[j], feqw(w0, float64(0*vx)+float64(0*vy), u), invTau)
			r1 := bgk(f1[j], feqw(w1, float64(1*vx)+float64(0*vy), u), invTau)
			r2 := bgk(f2[j], feqw(w1, float64(0*vx)+float64(1*vy), u), invTau)
			r3 := bgk(f3[j], feqw(w1, float64(-1*vx)+float64(0*vy), u), invTau)
			r4 := bgk(f4[j], feqw(w1, float64(0*vx)+float64(-1*vy), u), invTau)
			r5 := bgk(f5[j], feqw(w5, float64(1*vx)+float64(1*vy), u), invTau)
			r6 := bgk(f6[j], feqw(w5, float64(-1*vx)+float64(1*vy), u), invTau)
			r7 := bgk(f7[j], feqw(w5, float64(-1*vx)+float64(-1*vy), u), invTau)
			r8 := bgk(f8[j], feqw(w5, float64(1*vx)+float64(-1*vy), u), invTau)
			// The force joins before the single store per population:
			// adding it to a value just stored would reload it.
			if forced {
				r1 += float64(kw[1] * rho * cg[1])
				r2 += float64(kw[2] * rho * cg[2])
				r3 += float64(kw[3] * rho * cg[3])
				r4 += float64(kw[4] * rho * cg[4])
				r5 += float64(kw[5] * rho * cg[5])
				r6 += float64(kw[6] * rho * cg[6])
				r7 += float64(kw[7] * rho * cg[7])
				r8 += float64(kw[8] * rho * cg[8])
			}
			f0[j], f1[j], f2[j], f3[j], f4[j] = r0, r1, r2, r3, r4
			f5[j], f6[j], f7[j], f8[j] = r5, r6, r7, r8
		}
	}
}

// shift streams the relaxed populations to the nearest neighbours: every
// interior target gathers from its upwind neighbour, and ghost targets
// collect the outflow that the exchange will deliver to neighbouring
// subregions. Interior edge values computed from stale ghosts are
// overwritten by the incoming exchange data.
//
// One pool run streams every population's rows (interior rows plus the
// ghost-column target at the same y), so the phase pays one barrier; the
// ghost-row strips and corners are finished serially — they are O(nx) of
// the O(nx*ny) population.
func (s *Solver2D) shift() {
	s.run(s.Rho.NY, s.shiftFn)
	for i := 0; i < Q2; i++ {
		if dy := cy2[i]; dy != 0 {
			gy := -1
			if dy > 0 {
				gy = s.Rho.NY
			}
			shiftRow2(s.F[i], s.nF[i], cx2[i], dy, gy)
		}
	}
	for i := 0; i < Q2; i++ {
		s.F[i].Swap(s.nF[i])
	}
}

// shiftRows streams every population into its post-shift buffer on rows
// [y0, y1). Writes land only in rows [y0, y1) of the buffers.
func (s *Solver2D) shiftRows(y0, y1 int) {
	for i := 0; i < Q2; i++ {
		src, dst, dx, dy := s.F[i], s.nF[i], cx2[i], cy2[i]
		for y := y0; y < y1; y++ {
			shiftRow2(src, dst, dx, dy, y)
		}
	}
}

// shiftRow2 fills row y of dst from the upwind row of src, dst(x, y) =
// src(x-dx, y-dy), as one copy: the interior x in [0, nx) plus, for a
// population with an x component, the ghost-column target on its
// downwind side.
func shiftRow2(src, dst *grid.Field2D, dx, dy, y int) {
	x0, n := 0, src.NX
	if dx != 0 {
		n++
		if dx < 0 {
			x0 = -1
		}
	}
	d, o := dst.Idx(x0, y), src.Idx(x0-dx, y-dy)
	copy(dst.Data()[d:d+n], src.Data()[o:o+n])
}

// macroscopics recomputes rho, Vx, Vy from the populations at interior
// nodes. Wall nodes keep rho = Rho0, V = 0: their populations are in
// bounce-back transit and carry no fluid state.
func (s *Solver2D) macroscopics() { s.run(s.Rho.NY, s.macroFn) }

// macroRows recomputes the fluid variables on rows [y0, y1): the
// population sums of rho and momentum, unrolled in population order.
func (s *Solver2D) macroRows(y0, y1 int) {
	nx := s.Rho.NX
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		cells := s.cells[y*nx : (y+1)*nx]
		b, n := s.Rho.Idx(0, y), len(cells)
		f0, f1, f2 := s.F[0].Data()[b:][:n], s.F[1].Data()[b:][:n], s.F[2].Data()[b:][:n]
		f3, f4, f5 := s.F[3].Data()[b:][:n], s.F[4].Data()[b:][:n], s.F[5].Data()[b:][:n]
		f6, f7, f8 := s.F[6].Data()[b:][:n], s.F[7].Data()[b:][:n], s.F[8].Data()[b:][:n]
		rhos, vxs, vys := s.Rho.Data()[b:][:n], s.Vx.Data()[b:][:n], s.Vy.Data()[b:][:n]
		for j, c := range cells {
			if !open && c == fluid.Wall {
				rhos[j], vxs[j], vys[j] = s.Par.Rho0, 0, 0
				continue
			}
			a0, a1, a2, a3, a4, a5, a6, a7, a8 := f0[j], f1[j], f2[j], f3[j], f4[j], f5[j], f6[j], f7[j], f8[j]
			rho := 0 + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8
			mx := 0 + float64(a0*0) + float64(a1*1) + float64(a2*0) + float64(a3*-1) +
				float64(a4*0) + float64(a5*1) + float64(a6*-1) + float64(a7*-1) + float64(a8*1)
			my := 0 + float64(a0*0) + float64(a1*0) + float64(a2*1) + float64(a3*0) +
				float64(a4*-1) + float64(a5*1) + float64(a6*1) + float64(a7*-1) + float64(a8*-1)
			rhos[j], vxs[j], vys[j] = rho, mx/rho, my/rho
		}
	}
}

func (s *Solver2D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
}

// sendRegion returns the ghost-strip region of population i's outflow
// toward dir, trimmed so that every packed value was sourced from this
// subregion's interior. A diagonal population on a side strip skips the
// one node whose source lies outside the interior: that value travels on
// the corner path of the adjacent neighbour instead, so trimming keeps
// exactly one writer per receiving node.
func (s *Solver2D) sendRegion(i int, dir decomp.Dir) halo.Region2D {
	r := halo.SendGhost2D(s.F[i], dir)
	return trim2(r, dir, cx2[i], cy2[i])
}

// recvRegion returns the interior-edge region where population i arriving
// from dir is stored; it mirrors the sender's trimmed region.
func (s *Solver2D) recvRegion(i int, dir decomp.Dir) halo.Region2D {
	r := halo.RecvInterior2D(s.F[i], dir)
	return trim2(r, dir.Opposite(), cx2[i], cy2[i])
}

// trim2 clips a side strip for a population moving with lattice vector
// (dx, dy) crossing side dir: along a vertical side the strip loses the
// node at the end the population slants away from, and symmetrically for
// horizontal sides. Corner regions (1x1) are never trimmed.
func trim2(r halo.Region2D, dir decomp.Dir, dx, dy int) halo.Region2D {
	switch dir {
	case decomp.East, decomp.West:
		if dy > 0 {
			r.Y0, r.NY = r.Y0+1, r.NY-1
		} else if dy < 0 {
			r.NY--
		}
	case decomp.North, decomp.South:
		if dx > 0 {
			r.X0, r.NX = r.X0+1, r.NX-1
		} else if dx < 0 {
			r.NX--
		}
	}
	return r
}

// Pack extracts, for the neighbour at dir, the populations streaming into
// it (outflow-delivery convention; all boundary data in one message).
func (s *Solver2D) Pack(phase int, dir decomp.Dir, buf []float64) []float64 {
	for _, i := range outgoing2[dir] {
		buf = halo.Extract2D(s.F[i], s.sendRegion(i, dir), buf)
	}
	return buf
}

// Unpack stores populations received from the neighbour at dir into the
// interior edge strip on that side. The sender packed its outgoing
// populations for direction Opposite(dir), which are exactly the
// populations entering this subregion from dir.
func (s *Solver2D) Unpack(phase int, dir decomp.Dir, buf []float64) {
	for _, i := range outgoing2[dir.Opposite()] {
		buf = halo.Inject2D(s.F[i], s.recvRegion(i, dir), buf)
	}
	if len(buf) != 0 {
		panic(fmt.Sprintf("lbm: %d leftover values after unpack", len(buf)))
	}
}

// MsgLen returns the message length for a direction: roughly 3 populations
// per side node (exactly 3L-2 per side of length L after corner trimming),
// 1 value per corner.
func (s *Solver2D) MsgLen(phase int, dir decomp.Dir) int {
	n := 0
	for _, i := range outgoing2[dir] {
		n += s.sendRegion(i, dir).Len()
	}
	return n
}

// Stencil returns the neighbour stencil: full, because diagonal
// populations cross subregion corners.
func (s *Solver2D) Stencil() decomp.Stencil { return decomp.Full }

// StepSerial advances a standalone solver one step with periodic wrapping
// on the requested axes. ("Serial" refers to the absence of a transport —
// the exchange wraps in place; the compute slabs still honour Workers.)
func (s *Solver2D) StepSerial(periodicX, periodicY bool) {
	s.Compute(0)
	s.selfExchange(periodicX, periodicY)
	s.Compute(1)
}

// selfExchange wraps outflow back into the solver's own opposite edges,
// reusing the solver's exchange buffer so the steady-state step does not
// allocate.
func (s *Solver2D) selfExchange(periodicX, periodicY bool) {
	wrap := func(d decomp.Dir) {
		s.xbuf = s.Pack(0, d, s.xbuf[:0])
		s.Unpack(0, d.Opposite(), s.xbuf)
	}
	if periodicX {
		wrap(decomp.East)
		wrap(decomp.West)
	}
	if periodicY {
		wrap(decomp.North)
		wrap(decomp.South)
	}
	if periodicX && periodicY {
		wrap(decomp.NorthEast)
		wrap(decomp.NorthWest)
		wrap(decomp.SouthEast)
		wrap(decomp.SouthWest)
	}
}

// Vorticity computes the curl at interior node (x, y) by centered
// differences of the fluid velocity.
func (s *Solver2D) Vorticity(x, y int) float64 {
	return float64(0.5*(s.Vy.At(x+1, y)-s.Vy.At(x-1, y))) - float64(0.5*(s.Vx.At(x, y+1)-s.Vx.At(x, y-1)))
}
