package decomp

import "fmt"

// Dir3 is a face direction in 3D. The paper's 3D decompositions are
// (P x 1 x 1) and small (J x K x L) lattices; halo exchange is per face
// (star stencil), which is all the D3Q15 lattice Boltzmann method and the
// 3D finite-difference stencil require.
type Dir3 int

const (
	West3  Dir3 = iota // -x
	East3              // +x
	South3             // -y
	North3             // +y
	Down3              // -z
	Up3                // +z
	numDirs3
)

// Opposite returns the direction pointing back at the sender.
func (d Dir3) Opposite() Dir3 {
	switch d {
	case West3:
		return East3
	case East3:
		return West3
	case South3:
		return North3
	case North3:
		return South3
	case Down3:
		return Up3
	case Up3:
		return Down3
	}
	panic(fmt.Sprintf("decomp: invalid 3D direction %d", d))
}

// Delta returns the (dx, dy, dz) lattice offset of direction d.
func (d Dir3) Delta() (int, int, int) {
	switch d {
	case West3:
		return -1, 0, 0
	case East3:
		return 1, 0, 0
	case South3:
		return 0, -1, 0
	case North3:
		return 0, 1, 0
	case Down3:
		return 0, 0, -1
	case Up3:
		return 0, 0, 1
	}
	panic(fmt.Sprintf("decomp: invalid 3D direction %d", d))
}

func (d Dir3) String() string {
	names := [...]string{"W", "E", "S", "N", "D", "U"}
	if d < 0 || int(d) >= len(names) {
		return fmt.Sprintf("Dir3(%d)", int(d))
	}
	return names[d]
}

var allDirs3 = [numDirs3]Dir3{West3, East3, South3, North3, Down3, Up3}

// Dirs3 returns all six face directions in deterministic order. The slice
// is shared: callers must not modify it.
func Dirs3() []Dir3 { return allDirs3[:] }

// Subregion3D describes one box of a 3D decomposition.
type Subregion3D struct {
	Rank       int
	I, J, K    int
	X0, Y0, Z0 int
	NX, NY, NZ int
	Active     bool
}

// Nodes returns the interior node count of the subregion.
func (s Subregion3D) Nodes() int { return s.NX * s.NY * s.NZ }

// Decomp3D is a (J x K x L) decomposition of a GX x GY x GZ grid.
type Decomp3D struct {
	JX, JY, JZ int
	GX, GY, GZ int

	// Periodic axes wrap the lattice, as in Decomp2D.
	PeriodicX, PeriodicY, PeriodicZ bool

	subs   []Subregion3D
	active int
}

// New3D builds a uniform 3D decomposition; remainders are distributed one
// node per leading subregion along each axis.
func New3D(jx, jy, jz, gx, gy, gz int) (*Decomp3D, error) {
	if jx <= 0 || jy <= 0 || jz <= 0 {
		return nil, fmt.Errorf("decomp: invalid decomposition (%d x %d x %d)", jx, jy, jz)
	}
	if gx < jx || gy < jy || gz < jz {
		return nil, fmt.Errorf("decomp: grid %dx%dx%d smaller than (%d x %d x %d)", gx, gy, gz, jx, jy, jz)
	}
	return New3DShaped(UniformShape3D(jx, jy, jz, gx, gy, gz))
}

// P returns the number of active subregions.
func (d *Decomp3D) P() int { return d.active }

// Sub returns the subregion at lattice position (i, j, k).
func (d *Decomp3D) Sub(i, j, k int) *Subregion3D {
	if i < 0 || i >= d.JX || j < 0 || j >= d.JY || k < 0 || k >= d.JZ {
		panic(fmt.Sprintf("decomp: lattice position (%d,%d,%d) outside (%d x %d x %d)",
			i, j, k, d.JX, d.JY, d.JZ))
	}
	return &d.subs[(k*d.JY+j)*d.JX+i]
}

// Subregions returns all subregions in rank order.
func (d *Decomp3D) Subregions() []Subregion3D { return d.subs }

// ByRank returns the active subregion with the given rank.
func (d *Decomp3D) ByRank(rank int) *Subregion3D {
	for i := range d.subs {
		if d.subs[i].Active && d.subs[i].Rank == rank {
			return &d.subs[i]
		}
	}
	panic(fmt.Sprintf("decomp: no active 3D subregion with rank %d", rank))
}

// Neighbor returns the active neighbour in face direction dir, or nil.
func (d *Decomp3D) Neighbor(s *Subregion3D, dir Dir3) *Subregion3D {
	dx, dy, dz := dir.Delta()
	ni, nj, nk := s.I+dx, s.J+dy, s.K+dz
	if d.PeriodicX {
		ni = (ni + d.JX) % d.JX
	}
	if d.PeriodicY {
		nj = (nj + d.JY) % d.JY
	}
	if d.PeriodicZ {
		nk = (nk + d.JZ) % d.JZ
	}
	if ni < 0 || ni >= d.JX || nj < 0 || nj >= d.JY || nk < 0 || nk >= d.JZ {
		return nil
	}
	n := d.Sub(ni, nj, nk)
	if !n.Active {
		return nil
	}
	return n
}

// FaceCount returns the number of communicating faces of s.
func (d *Decomp3D) FaceCount(s *Subregion3D) int {
	n := 0
	for _, dir := range Dirs3() {
		if d.Neighbor(s, dir) != nil {
			n++
		}
	}
	return n
}

// SurfaceFactor returns the 3D analogue of m: the maximum number of
// communicating faces over active subregions, so that the communicating
// surface is N_c = m N^{2/3} (eq. 16).
func (d *Decomp3D) SurfaceFactor() int {
	m := 0
	for i := range d.subs {
		if !d.subs[i].Active {
			continue
		}
		if c := d.FaceCount(&d.subs[i]); c > m {
			m = c
		}
	}
	return m
}

func (d *Decomp3D) String() string {
	return fmt.Sprintf("(%d x %d x %d) of %dx%dx%d, %d active",
		d.JX, d.JY, d.JZ, d.GX, d.GY, d.GZ, d.active)
}
