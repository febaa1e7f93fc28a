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

// Solver3D integrates one box subregion of the 3D isothermal Navier-Stokes
// equations with the same scheme as Solver2D plus the V_z momentum equation
// (section 6). It communicates 4 variables per boundary node: Vx, Vy, Vz
// after the velocity update and rho after the density update.
//
// When Workers > 1 the inner phases run as z-plane slabs on the shared
// pool, bit-identical to the serial sweep.
type Solver3D struct {
	Par fluid.Params

	Mask func(x, y, z int) fluid.CellType

	// Workers is the intra-rank slab count; <= 1 runs the serial sweeps.
	Workers int

	Rho, Vx, Vy, Vz *grid.Field3D

	nVx, nVy, nVz, nRho *grid.Field3D
	scratch             []float64

	// Static per-node structure cached at construction (see Solver2D).
	cells   []fluid.CellType
	rowOpen []bool // indexed z*ny + y
	plan    *filter.Plan3D

	par          pool.Runner
	velFn, denFn func(lo, hi int)
	runFn        filter.RunFunc
	xbuf         []float64

	// Field lists built once at construction so the steady-state step
	// allocates nothing (see Solver2D).
	filterFields []*grid.Field3D
	phaseFields  [2][]*grid.Field3D
}

// NewSolver3D allocates a 3D solver initialized to rho = Rho0, V = 0.
func NewSolver3D(nx, ny, nz int, par fluid.Params, mask func(x, y, z int) fluid.CellType) (*Solver3D, error) {
	if err := par.Check(); err != nil {
		return nil, err
	}
	if mask == nil {
		return nil, fmt.Errorf("fd: nil mask")
	}
	s := &Solver3D{
		Par:     par,
		Mask:    mask,
		Rho:     grid.NewField3D(nx, ny, nz, 1),
		Vx:      grid.NewField3D(nx, ny, nz, 1),
		Vy:      grid.NewField3D(nx, ny, nz, 1),
		Vz:      grid.NewField3D(nx, ny, nz, 1),
		nVx:     grid.NewField3D(nx, ny, nz, 1),
		nVy:     grid.NewField3D(nx, ny, nz, 1),
		nVz:     grid.NewField3D(nx, ny, nz, 1),
		nRho:    grid.NewField3D(nx, ny, nz, 1),
		scratch: make([]float64, nx*ny*nz),
		cells:   make([]fluid.CellType, nx*ny*nz),
		rowOpen: make([]bool, ny*nz),
		plan:    filter.NewPlan3D(nx, ny, nz, mask),
	}
	s.filterFields = []*grid.Field3D{s.Rho, s.Vx, s.Vy, s.Vz}
	s.phaseFields = [2][]*grid.Field3D{{s.Vx, s.Vy, s.Vz}, {s.Rho}}
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
	s.velFn = s.velocityPlanes
	s.denFn = s.densityPlanes
	s.runFn = s.run
	s.Rho.Fill(par.Rho0)
	return s, nil
}

// SetWorkers sets the intra-rank slab count.
func (s *Solver3D) SetWorkers(n int) { s.Workers = n }

func (s *Solver3D) run(n int, fn func(lo, hi int)) { s.par.Run(s.Workers, n, fn) }

// Phases returns the number of compute phases per step.
func (s *Solver3D) Phases() int { return 3 }

// Exchanges reports whether a halo exchange follows the phase.
func (s *Solver3D) Exchanges(phase int) bool { return phase == 0 || phase == 1 }

// ExchangeDirs returns the faces exchanged after a phase: all six for the
// velocity and density phases (star stencil, no sweep ordering needed).
func (s *Solver3D) ExchangeDirs(phase int) []decomp.Dir3 {
	if s.Exchanges(phase) {
		return decomp.Dirs3()
	}
	return nil
}

// Compute runs one compute phase.
func (s *Solver3D) Compute(phase int) {
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

func (s *Solver3D) computeVelocity() {
	s.run(s.Vx.NZ, s.velFn)
	s.Vx.Swap(s.nVx)
	s.Vy.Swap(s.nVy)
	s.Vz.Swap(s.nVz)
}

// velocityPlanes updates the velocity of z-planes [z0, z1). The momentum
// derivatives are written out term by term so the hot loop builds no
// closures; each row takes its base index into the flat storage once and
// reaches its neighbours at j+-1, j+-sx and j+-sxy. Products that feed a
// sum are wrapped in explicit float64 conversions (see Solver2D).
func (s *Solver3D) velocityPlanes(z0, z1 int) {
	p := s.Par
	dt, nu, cs2 := p.Dt, p.Nu, p.Cs*p.Cs
	vxs, vys, vzs, rhos := s.Vx.Data(), s.Vy.Data(), s.Vz.Data(), s.Rho.Data()
	nvx, nvy, nvz := s.nVx.Data(), s.nVy.Data(), s.nVz.Data()
	nx, ny := s.Vx.NX, s.Vx.NY
	sx, sxy := s.Vx.StrideX(), s.Vx.StrideXY()
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			cells := s.cells[row : row+nx]
			b := s.Vx.Idx(0, y, z)
			for x, c := range cells {
				j := b + x
				if !open {
					switch c {
					case fluid.Wall:
						nvx[j], nvy[j], nvz[j] = 0, 0, 0
						continue
					case fluid.Inlet:
						nvx[j], nvy[j], nvz[j] = p.InletVx, p.InletVy, p.InletVz
						continue
					case fluid.Outlet:
						nvx[j], nvy[j], nvz[j] = vxs[j], vys[j], vzs[j]
						continue
					}
				}
				vx, vy, vz := vxs[j], vys[j], vzs[j]
				rho := rhos[j]

				gxx := 0.5 * (vxs[j+1] - vxs[j-1])
				gxy := 0.5 * (vxs[j+sx] - vxs[j-sx])
				gxz := 0.5 * (vxs[j+sxy] - vxs[j-sxy])
				gyx := 0.5 * (vys[j+1] - vys[j-1])
				gyy := 0.5 * (vys[j+sx] - vys[j-sx])
				gyz := 0.5 * (vys[j+sxy] - vys[j-sxy])
				gzx := 0.5 * (vzs[j+1] - vzs[j-1])
				gzy := 0.5 * (vzs[j+sx] - vzs[j-sx])
				gzz := 0.5 * (vzs[j+sxy] - vzs[j-sxy])
				rx := 0.5 * (rhos[j+1] - rhos[j-1])
				ry := 0.5 * (rhos[j+sx] - rhos[j-sx])
				rz := 0.5 * (rhos[j+sxy] - rhos[j-sxy])
				lapVx := vxs[j+1] + vxs[j-1] + vxs[j+sx] + vxs[j-sx] + vxs[j+sxy] + vxs[j-sxy] - float64(6*vx)
				lapVy := vys[j+1] + vys[j-1] + vys[j+sx] + vys[j-sx] + vys[j+sxy] + vys[j-sxy] - float64(6*vy)
				lapVz := vzs[j+1] + vzs[j-1] + vzs[j+sx] + vzs[j-sx] + vzs[j+sxy] + vzs[j-sxy] - float64(6*vz)

				advX := float64(vx*gxx) + float64(vy*gxy) + float64(vz*gxz)
				advY := float64(vx*gyx) + float64(vy*gyy) + float64(vz*gyz)
				advZ := float64(vx*gzx) + float64(vy*gzy) + float64(vz*gzz)
				nvx[j] = vx + float64(dt*(-advX-float64(cs2/rho*rx)+float64(nu*lapVx)+p.ForceX))
				nvy[j] = vy + float64(dt*(-advY-float64(cs2/rho*ry)+float64(nu*lapVy)+p.ForceY))
				nvz[j] = vz + float64(dt*(-advZ-float64(cs2/rho*rz)+float64(nu*lapVz)+p.ForceZ))
			}
		}
	}
}

func (s *Solver3D) computeDensity() {
	s.run(s.Rho.NZ, s.denFn)
	s.Rho.Swap(s.nRho)
}

// densityPlanes updates the density of z-planes [z0, z1), indexing the
// flat storage from one base per row (see velocityPlanes).
func (s *Solver3D) densityPlanes(z0, z1 int) {
	p := s.Par
	dt := p.Dt
	vxs, vys, vzs, rhos, nrho := s.Vx.Data(), s.Vy.Data(), s.Vz.Data(), s.Rho.Data(), s.nRho.Data()
	nx, ny := s.Rho.NX, s.Rho.NY
	sx, sxy := s.Rho.StrideX(), s.Rho.StrideXY()
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			open := s.rowOpen[z*ny+y]
			row := (z*ny + y) * nx
			cells := s.cells[row : row+nx]
			b := s.Rho.Idx(0, y, z)
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
				dFx := float64(0.5 * (float64(rhos[j+1]*vxs[j+1]) - float64(rhos[j-1]*vxs[j-1])))
				dFy := float64(0.5 * (float64(rhos[j+sx]*vys[j+sx]) - float64(rhos[j-sx]*vys[j-sx])))
				dFz := float64(0.5 * (float64(rhos[j+sxy]*vzs[j+sxy]) - float64(rhos[j-sxy]*vzs[j-sxy])))
				nrho[j] = rhos[j] - float64(dt*(dFx+dFy+dFz))
			}
		}
	}
}

func (s *Solver3D) applyFilter() {
	s.plan.Apply(s.filterFields, s.Par.Eps, s.scratch, s.runFn)
}

func (s *Solver3D) fields(phase int) []*grid.Field3D {
	if phase == 0 {
		return s.phaseFields[0]
	}
	return s.phaseFields[1]
}

// Pack extracts the interior face strip sent to the neighbour at dir after
// the given phase (ghost-fill convention; star stencil, faces only).
func (s *Solver3D) Pack(phase int, dir decomp.Dir3, buf []float64) []float64 {
	return halo.PackSend3D(s.fields(phase), dir, true, buf)
}

// Unpack stores data received from the neighbour at dir into the ghost
// face strip on that side.
func (s *Solver3D) Unpack(phase int, dir decomp.Dir3, buf []float64) {
	halo.UnpackRecv3D(s.fields(phase), dir, true, buf)
}

// MsgLen returns the message length for a phase and face direction.
func (s *Solver3D) MsgLen(phase int, dir decomp.Dir3) int {
	return halo.MsgLen3D(s.fields(phase), dir)
}

// StepSerial advances a standalone solver one step with periodic wrapping
// on the requested axes.
func (s *Solver3D) StepSerial(periodicX, periodicY, periodicZ bool) {
	for ph := 0; ph < s.Phases(); ph++ {
		s.Compute(ph)
		if s.Exchanges(ph) {
			s.selfExchange(ph, periodicX, periodicY, periodicZ)
		}
	}
}

func (s *Solver3D) selfExchange(phase int, px, py, pz bool) {
	wrap := func(a, b decomp.Dir3) {
		s.xbuf = s.Pack(phase, a, s.xbuf[:0])
		s.Unpack(phase, b, s.xbuf)
		s.xbuf = s.Pack(phase, b, s.xbuf[:0])
		s.Unpack(phase, a, s.xbuf)
	}
	if px {
		wrap(decomp.East3, decomp.West3)
	}
	if py {
		wrap(decomp.North3, decomp.South3)
	}
	if pz {
		wrap(decomp.Up3, decomp.Down3)
	}
}
