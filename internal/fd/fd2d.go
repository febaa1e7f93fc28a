// Package fd implements the explicit finite-difference method of section 6:
// a straightforward discretization of the isothermal Navier-Stokes
// equations 1-3 with centered differences in space and forward Euler in
// time, on a uniform orthogonal grid with dx = 1.
//
// For numerical stability the density equation is updated using the
// velocities at time t+dt: the velocities are computed first, and the
// density is computed as a separate step (this ordering makes the acoustic
// subsystem a symplectic-Euler update, which is neutrally stable where
// plain forward Euler would grow). The per-cycle sequence is exactly the
// paper's:
//
//	Calculate Vx, Vy   (inner)
//	Communicate Vx, Vy (boundary)
//	Calculate rho      (inner)
//	Communicate rho    (boundary)
//	Filter rho, Vx, Vy (inner)
//
// so the method sends two messages per neighbour per integration step and
// communicates 3 variables per boundary node in 2D (4 in 3D), the counts
// that drive its efficiency behaviour in figures 7-8.
//
// Like the lattice Boltzmann method, every inner phase writes each node
// from its own neighbourhood reads of the previous-step fields, so a
// rank's subregion is cut into row slabs (z-plane slabs in 3D) on the
// shared worker pool when Workers > 1; results are bit-identical to the
// serial sweep at any worker count (see internal/pool).
package fd

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/filter"
	"repro/internal/fluid"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/pool"
)

// Solver2D integrates one subregion (or a whole serial domain) of the 2D
// isothermal Navier-Stokes equations.
type Solver2D struct {
	Par fluid.Params

	// Mask gives the cell type at subregion-local coordinates; ghost
	// offsets (-1, NX, NY) must be answered too (walls beyond the domain,
	// fluid across a seam).
	Mask func(x, y int) fluid.CellType

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	// Results are bit-identical at every value.
	Workers int

	Rho, Vx, Vy *grid.Field2D // current state, ghost depth 1

	nVx, nVy, nRho *grid.Field2D // next-step buffers
	scratch        []float64     // filter workspace

	// Static per-node structure cached at construction: interior cell
	// types and per-row all-Interior flags (the branch-light fast path).
	// Only interior coordinates are cached; ghost queries still go through
	// Mask (they occur only in the filter plan, precomputed once).
	cells   []fluid.CellType
	rowOpen []bool
	plan    *filter.Plan2D

	par          pool.Runner
	velFn, denFn func(lo, hi int)
	runFn        filter.RunFunc
	xbuf         []float64

	// Field lists built once at construction so the steady-state step
	// allocates nothing; Swap exchanges field contents, never these
	// pointers, so they stay valid across steps.
	filterFields []*grid.Field2D
	phaseFields  [2][]*grid.Field2D
}

// NewSolver2D allocates a solver for an nx-by-ny subregion. The fields are
// initialized to rho = Rho0, V = 0; callers overwrite them for other
// initial states.
func NewSolver2D(nx, ny int, par fluid.Params, mask func(x, y int) fluid.CellType) (*Solver2D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("fd: nil mask")
	}
	s := &Solver2D{
		Par:  par,
		Mask: mask,
		Rho:  grid.NewField2D(nx, ny, 1),
		Vx:   grid.NewField2D(nx, ny, 1),
		Vy:   grid.NewField2D(nx, ny, 1),
		nVx:  grid.NewField2D(nx, ny, 1),
		nVy:  grid.NewField2D(nx, ny, 1),
		nRho: grid.NewField2D(nx, ny, 1),

		scratch: make([]float64, nx*ny),
		cells:   make([]fluid.CellType, nx*ny),
		rowOpen: make([]bool, ny),
		plan:    filter.NewPlan2D(nx, ny, mask),
	}
	s.filterFields = []*grid.Field2D{s.Rho, s.Vx, s.Vy}
	s.phaseFields = [2][]*grid.Field2D{{s.Vx, s.Vy}, {s.Rho}}
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
	s.velFn = s.velocityRows
	s.denFn = s.densityRows
	s.runFn = s.run
	s.Rho.Fill(par.Rho0)
	return s, nil
}

// SetWorkers sets the intra-rank slab count (the core setup threads the
// per-rank budget through here).
func (s *Solver2D) SetWorkers(n int) { s.Workers = n }

func (s *Solver2D) run(n int, fn func(lo, hi int)) { s.par.Run(s.Workers, n, fn) }

// Phases returns the number of compute phases per integration step.
func (s *Solver2D) Phases() int { return 3 }

// Exchanges reports whether a halo exchange follows the given phase.
// Velocities are exchanged after phase 0 and density after phase 1; the
// filter phase needs no communication.
func (s *Solver2D) Exchanges(phase int) bool { return phase == 0 || phase == 1 }

// Compute runs one compute phase on the interior nodes.
func (s *Solver2D) Compute(phase int) {
	switch phase {
	case 0:
		s.computeVelocity()
	case 1:
		s.computeDensity()
	case 2:
		s.applyFilter()
	default:
		panic(fmt.Sprintf("fd: invalid phase %d", phase))
	}
}

// computeVelocity advances Vx, Vy by one forward-Euler step of the momentum
// equations 2-3 and applies the velocity boundary conditions. Every node
// writes only nVx/nVy at its own coordinates, so row slabs are
// write-disjoint; the swap happens after all slabs finish.
func (s *Solver2D) computeVelocity() {
	s.run(s.Vx.NY, s.velFn)
	s.Vx.Swap(s.nVx)
	s.Vy.Swap(s.nVy)
}

// velocityRows updates the velocity of rows [y0, y1). Each row takes its
// base index into the fields' flat storage once; the stencil neighbours
// are j+-1 along x and j+-sx along y. Every product that feeds a sum is
// wrapped in an explicit float64 conversion, which the Go spec forbids
// fusing into a multiply-add, so the update rounds identically on every
// GOARCH.
func (s *Solver2D) velocityRows(y0, y1 int) {
	p := s.Par
	dt, nu, cs2 := p.Dt, p.Nu, p.Cs*p.Cs
	vxs, vys, rhos := s.Vx.Data(), s.Vy.Data(), s.Rho.Data()
	nvx, nvy := s.nVx.Data(), s.nVy.Data()
	nx, sx := s.Vx.NX, s.Vx.Stride()
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		cells := s.cells[y*nx : (y+1)*nx]
		b := s.Vx.Idx(0, y)
		for x, c := range cells {
			j := b + x
			if !open {
				switch c {
				case fluid.Wall:
					nvx[j], nvy[j] = 0, 0
					continue
				case fluid.Inlet:
					nvx[j], nvy[j] = p.InletVx, p.InletVy
					continue
				case fluid.Outlet:
					// Open boundary: velocity convects out unchanged.
					nvx[j], nvy[j] = vxs[j], vys[j]
					continue
				}
			}
			vx, vy := vxs[j], vys[j]
			rho := rhos[j]

			dVxdx := 0.5 * (vxs[j+1] - vxs[j-1])
			dVxdy := 0.5 * (vxs[j+sx] - vxs[j-sx])
			dVydx := 0.5 * (vys[j+1] - vys[j-1])
			dVydy := 0.5 * (vys[j+sx] - vys[j-sx])
			dRdx := 0.5 * (rhos[j+1] - rhos[j-1])
			dRdy := 0.5 * (rhos[j+sx] - rhos[j-sx])
			lapVx := vxs[j+1] + vxs[j-1] + vxs[j+sx] + vxs[j-sx] - float64(4*vx)
			lapVy := vys[j+1] + vys[j-1] + vys[j+sx] + vys[j-sx] - float64(4*vy)

			nvx[j] = vx + float64(dt*(float64(-vx*dVxdx)-float64(vy*dVxdy)-float64(cs2/rho*dRdx)+float64(nu*lapVx)+p.ForceX))
			nvy[j] = vy + float64(dt*(float64(-vx*dVydx)-float64(vy*dVydy)-float64(cs2/rho*dRdy)+float64(nu*lapVy)+p.ForceY))
		}
	}
}

// computeDensity advances rho by the continuity equation 1 using the
// just-updated velocities, then applies the density boundary conditions.
// The flux form conserves mass exactly over the interior.
func (s *Solver2D) computeDensity() {
	s.run(s.Rho.NY, s.denFn)
	s.Rho.Swap(s.nRho)
}

// densityRows updates the density of rows [y0, y1), indexing the flat
// storage from one base per row (see velocityRows).
func (s *Solver2D) densityRows(y0, y1 int) {
	p := s.Par
	dt := p.Dt
	vxs, vys, rhos, nrho := s.Vx.Data(), s.Vy.Data(), s.Rho.Data(), s.nRho.Data()
	nx, sx := s.Rho.NX, s.Rho.Stride()
	for y := y0; y < y1; y++ {
		open := s.rowOpen[y]
		cells := s.cells[y*nx : (y+1)*nx]
		b := s.Rho.Idx(0, y)
		for x, c := range cells {
			j := b + x
			if !open {
				switch c {
				case fluid.Inlet:
					nrho[j] = p.InletRho
					continue
				case fluid.Outlet:
					nrho[j] = p.OutletRho
					continue
				}
			}
			// Walls evolve by the same flux form; with V = 0 at wall
			// nodes the normal flux at the wall face vanishes and mass
			// stays where it is.
			dFxdx := float64(0.5 * (float64(rhos[j+1]*vxs[j+1]) - float64(rhos[j-1]*vxs[j-1])))
			dFydy := float64(0.5 * (float64(rhos[j+sx]*vys[j+sx]) - float64(rhos[j-sx]*vys[j-sx])))
			nrho[j] = rhos[j] - float64(dt*(dFxdx+dFydy))
		}
	}
}

// applyFilter runs the shared fourth-order filter on rho, Vx, Vy.
func (s *Solver2D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
}

// fields returns the state fields in the fixed exchange order.
func (s *Solver2D) fields(phase int) []*grid.Field2D {
	if phase == 0 {
		return s.phaseFields[0]
	}
	return s.phaseFields[1]
}

// Pack extracts the boundary data sent to the neighbour at dir after the
// given phase: the interior edge strips of the fields updated in that
// phase (ghost-fill convention).
func (s *Solver2D) Pack(phase int, dir decomp.Dir, buf []float64) []float64 {
	return halo.PackSend2D(s.fields(phase), dir, true, buf)
}

// Unpack stores boundary data received from the neighbour at dir into the
// ghost strips on that side.
func (s *Solver2D) Unpack(phase int, dir decomp.Dir, buf []float64) {
	halo.UnpackRecv2D(s.fields(phase), dir, true, buf)
}

// MsgLen returns the message length (float64 count) for a phase and
// direction; the transports use it to size receive buffers.
func (s *Solver2D) MsgLen(phase int, dir decomp.Dir) int {
	return halo.MsgLen2D(s.fields(phase), dir)
}

// Stencil returns the neighbour stencil the method needs: star, because
// centered differences couple axis neighbours only.
func (s *Solver2D) Stencil() decomp.Stencil { return decomp.Star }

// StepSerial advances a standalone (single-subregion) solver one full step,
// wrapping or reflecting its own ghosts between phases. periodicX/Y select
// periodic wrapping; non-periodic sides see walls via the mask.
func (s *Solver2D) StepSerial(periodicX, periodicY bool) {
	for ph := 0; ph < s.Phases(); ph++ {
		s.Compute(ph)
		if s.Exchanges(ph) {
			s.selfExchange(ph, periodicX, periodicY)
		}
	}
}

// selfExchange fills ghosts from the solver's own opposite edges (periodic)
// or leaves them untouched (walls handle non-periodic sides via the mask),
// reusing the solver's exchange buffer so the steady-state step does not
// allocate.
func (s *Solver2D) selfExchange(phase int, periodicX, periodicY bool) {
	if periodicX {
		s.xbuf = s.Pack(phase, decomp.East, s.xbuf[:0])
		s.Unpack(phase, decomp.West, s.xbuf)
		s.xbuf = s.Pack(phase, decomp.West, s.xbuf[:0])
		s.Unpack(phase, decomp.East, s.xbuf)
	}
	if periodicY {
		s.xbuf = s.Pack(phase, decomp.North, s.xbuf[:0])
		s.Unpack(phase, decomp.South, s.xbuf)
		s.xbuf = s.Pack(phase, decomp.South, s.xbuf[:0])
		s.Unpack(phase, decomp.North, s.xbuf)
	}
}

// MaxVelocity returns the maximum interior |V| component, a stability probe.
func (s *Solver2D) MaxVelocity() float64 {
	mx, my := s.Vx.MaxAbsInterior(), s.Vy.MaxAbsInterior()
	if mx > my {
		return mx
	}
	return my
}

// Vorticity computes the curl dVy/dx - dVx/dy at interior node (x, y).
func (s *Solver2D) Vorticity(x, y int) float64 {
	return float64(0.5*(s.Vy.At(x+1, y)-s.Vy.At(x-1, y))) - float64(0.5*(s.Vx.At(x, y+1)-s.Vx.At(x, y-1)))
}
