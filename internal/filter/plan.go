package filter

import (
	"repro/internal/fluid"
	"repro/internal/grid"
)

// RunFunc is a parallel-for executor: it invokes fn over disjoint
// sub-ranges covering [0, n) and returns once all of them are done. The
// solvers pass their pool-backed runner; Serial is the in-place default.
type RunFunc func(n int, fn func(lo, hi int))

// Serial runs the whole range on the calling goroutine.
func Serial(n int, fn func(lo, hi int)) { fn(0, n) }

// Plan2D is the filter with its applicability precomputed. Applicability
// depends only on the mask and the subregion geometry — both fixed for a
// solver's lifetime — so evaluating the 9-point mask probe per node per
// step is pure overhead; the plan replaces it with one bitmap lookup.
//
// Apply parallelizes over rows through a RunFunc with a barrier between
// the correction and update sweeps of each field. Every node's arithmetic
// is unchanged from the serial Apply2D and no node reads another node's
// written value within a sweep, so the result is bit-identical for every
// executor and worker count.
type Plan2D struct {
	nx, ny int
	ok     []bool // row-major applicability of the full stencil

	// Per-Apply state consumed by the prebuilt sweep closures; set by
	// Apply before handing the closures to the executor, so the
	// steady-state step builds no new closures and allocates nothing.
	f       *grid.Field2D
	eps     float64
	scratch []float64
	correct func(lo, hi int)
	update  func(lo, hi int)
}

// NewPlan2D precomputes filter applicability for an nx-by-ny subregion.
func NewPlan2D(nx, ny int, mask func(x, y int) fluid.CellType) *Plan2D {
	p := &Plan2D{nx: nx, ny: ny, ok: make([]bool, nx*ny)}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			p.ok[y*nx+x] = Applicable2D(x, y, nx, ny, mask)
		}
	}
	p.correct = p.correctRows
	p.update = p.updateRows
	return p
}

// correctRows computes the fourth-difference correction of rows
// [y0, y1) into scratch; nodes outside the stencil's reach get zero.
// Each row takes its base index into the field's storage once and reads
// the stencil through views of the five rows it spans.
func (p *Plan2D) correctRows(y0, y1 int) {
	f, sx, nx := p.f.Data(), p.f.Stride(), p.nx
	for y := y0; y < y1; y++ {
		row := p.scratch[y*nx : (y+1)*nx]
		okRow := p.ok[y*nx : (y+1)*nx]
		if y < 2 || y >= p.ny-2 {
			// No node of the row has the full stencil (Applicable2D),
			// and the stencil rows below would leave the storage.
			clear(row)
			continue
		}
		n := len(row)
		// Views of the five stencil rows, aligned so index x is the
		// node's column; the centre row is widened by 2 on each side.
		b := p.f.Idx(0, y)
		c := f[b-2:][:n+4]
		s2, s1 := f[b-2*sx:][:n], f[b-sx:][:n]
		n1, n2 := f[b+sx:][:n], f[b+2*sx:][:n]
		for x := range row {
			if !okRow[x] {
				row[x] = 0
				continue
			}
			row[x] = d4(c[x], c[x+1], c[x+2], c[x+3], c[x+4]) +
				d4(s2[x], s1[x], c[x+2], n1[x], n2[x])
		}
	}
}

// d4 is the fourth difference a - 4b + 6c - 4d + e, evaluated left to
// right; every product that feeds a sum is rounded on its own (an
// explicit float64 conversion forbids fusing it into a multiply-add).
func d4(a, b, c, d, e float64) float64 {
	return a - float64(4*b) + float64(6*c) - float64(4*d) + e
}

// updateRows applies the stored corrections to rows [y0, y1).
func (p *Plan2D) updateRows(y0, y1 int) {
	f, nx, eps := p.f.Data(), p.nx, p.eps
	for y := y0; y < y1; y++ {
		row := p.scratch[y*nx : (y+1)*nx]
		b := p.f.Idx(0, y)
		for x, c := range row {
			if c != 0 {
				f[b+x] += float64(-eps * c)
			}
		}
	}
}

// Apply filters the fields in place with strength eps. scratch must hold
// at least nx*ny values; run executes the row sweeps (Serial for the
// serial path). The correction sweep of a field completes before its
// update sweep starts, so no node reads a filtered value.
func (p *Plan2D) Apply(fields []*grid.Field2D, eps float64, scratch []float64, run RunFunc) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	if len(scratch) < p.nx*p.ny {
		panic("filter: scratch buffer too small")
	}
	p.eps, p.scratch = eps, scratch
	for _, f := range fields {
		if f.NX != p.nx || f.NY != p.ny {
			panic("filter: field geometry mismatch")
		}
		p.f = f
		run(p.ny, p.correct)
		run(p.ny, p.update)
	}
	p.f, p.scratch = nil, nil
}

// Plan3D is the 3D filter plan; Apply parallelizes over z-planes.
type Plan3D struct {
	nx, ny, nz int
	ok         []bool

	f       *grid.Field3D
	eps     float64
	scratch []float64
	correct func(lo, hi int)
	update  func(lo, hi int)
}

// NewPlan3D precomputes filter applicability for a box subregion.
func NewPlan3D(nx, ny, nz int, mask func(x, y, z int) fluid.CellType) *Plan3D {
	p := &Plan3D{nx: nx, ny: ny, nz: nz, ok: make([]bool, nx*ny*nz)}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				p.ok[(z*ny+y)*nx+x] = Applicable3D(x, y, z, nx, ny, nz, mask)
			}
		}
	}
	p.correct = p.correctPlanes
	p.update = p.updatePlanes
	return p
}

// correctPlanes computes corrections for z-planes [z0, z1) into scratch
// from views of the seven stencil rows of each row (see correctRows).
func (p *Plan3D) correctPlanes(z0, z1 int) {
	f, sx, sxy := p.f.Data(), p.f.StrideX(), p.f.StrideXY()
	nx, ny, nz := p.nx, p.ny, p.nz
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			base := (z*ny + y) * nx
			row := p.scratch[base : base+nx]
			okRow := p.ok[base : base+nx]
			if y < 2 || y >= ny-2 || z < 2 || z >= nz-2 {
				clear(row) // outside the stencil's reach (see correctRows)
				continue
			}
			n := len(row)
			b := p.f.Idx(0, y, z)
			c := f[b-2:][:n+4]
			s2, s1 := f[b-2*sx:][:n], f[b-sx:][:n]
			n1, n2 := f[b+sx:][:n], f[b+2*sx:][:n]
			d2, d1 := f[b-2*sxy:][:n], f[b-sxy:][:n]
			u1, u2 := f[b+sxy:][:n], f[b+2*sxy:][:n]
			for x := range row {
				if !okRow[x] {
					row[x] = 0
					continue
				}
				row[x] = d4(c[x], c[x+1], c[x+2], c[x+3], c[x+4]) +
					d4(s2[x], s1[x], c[x+2], n1[x], n2[x]) +
					d4(d2[x], d1[x], c[x+2], u1[x], u2[x])
			}
		}
	}
}

// updatePlanes applies stored corrections to z-planes [z0, z1).
func (p *Plan3D) updatePlanes(z0, z1 int) {
	f, nx, ny, eps := p.f.Data(), p.nx, p.ny, p.eps
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			base := (z*ny + y) * nx
			row := p.scratch[base : base+nx]
			b := p.f.Idx(0, y, z)
			for x, c := range row {
				if c != 0 {
					f[b+x] -= float64(eps * c)
				}
			}
		}
	}
}

// Apply filters the 3D fields in place; scratch must hold nx*ny*nz
// values.
func (p *Plan3D) Apply(fields []*grid.Field3D, eps float64, scratch []float64, run RunFunc) {
	if eps == 0 || len(fields) == 0 {
		return
	}
	if len(scratch) < p.nx*p.ny*p.nz {
		panic("filter: scratch buffer too small")
	}
	p.eps, p.scratch = eps, scratch
	for _, f := range fields {
		if f.NX != p.nx || f.NY != p.ny || f.NZ != p.nz {
			panic("filter: field geometry mismatch")
		}
		p.f = f
		run(p.nz, p.correct)
		run(p.nz, p.update)
	}
	p.f, p.scratch = nil, nil
}
