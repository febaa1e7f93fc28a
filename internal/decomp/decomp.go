// Package decomp implements the static rectangular domain decompositions of
// the paper: a global uniform grid is split into a (J x K) array of
// subregions in 2D, or (J x K x L) in 3D, and each active subregion is
// assigned to one parallel subprocess (sections 2-3). Subregions are
// identical-shaped under the uniform splitters (New2D/New3D); the
// speed-weighted splitters of weighted.go size spans proportionally to
// per-rank host speed for heterogeneous pools, with uniform splitting as
// the degenerate equal-weights case.
//
// The package also computes the decomposition-geometry constant m of
// section 8 (the surface factor in N_c = m N^{1/2} or m N^{2/3}), the
// neighbour topology under star or full stencils, and the identification of
// inactive subregions (subregions that are entirely solid wall, which the
// paper's figure-2 run leaves unassigned: 15 of 24 subregions employed).
package decomp

import "fmt"

// Stencil identifies the local-interaction pattern (figure 4 of the paper).
type Stencil int

const (
	// Star couples a node to neighbours along the coordinate axes only.
	Star Stencil = iota
	// Full couples a node to all neighbours including diagonals.
	Full
)

func (s Stencil) String() string {
	if s == Star {
		return "star"
	}
	return "full"
}

// Dir is a neighbour direction in 2D. The first four are the star
// directions; the last four complete the full stencil.
type Dir int

const (
	West Dir = iota
	East
	South
	North
	SouthWest
	SouthEast
	NorthWest
	NorthEast
	numDirs
)

// Opposite returns the direction pointing back at the sender; halo exchange
// pairs each send in direction d with a receive from Opposite(d).
func (d Dir) Opposite() Dir {
	switch d {
	case West:
		return East
	case East:
		return West
	case South:
		return North
	case North:
		return South
	case SouthWest:
		return NorthEast
	case SouthEast:
		return NorthWest
	case NorthWest:
		return SouthEast
	case NorthEast:
		return SouthWest
	}
	panic(fmt.Sprintf("decomp: invalid direction %d", d))
}

// Delta returns the (dx, dy) grid offset of direction d.
func (d Dir) Delta() (int, int) {
	switch d {
	case West:
		return -1, 0
	case East:
		return 1, 0
	case South:
		return 0, -1
	case North:
		return 0, 1
	case SouthWest:
		return -1, -1
	case SouthEast:
		return 1, -1
	case NorthWest:
		return -1, 1
	case NorthEast:
		return 1, 1
	}
	panic(fmt.Sprintf("decomp: invalid direction %d", d))
}

func (d Dir) String() string {
	names := [...]string{"W", "E", "S", "N", "SW", "SE", "NW", "NE"}
	if d < 0 || int(d) >= len(names) {
		return fmt.Sprintf("Dir(%d)", int(d))
	}
	return names[d]
}

// allDirs lists every direction; the star stencil uses the first four.
var allDirs = [numDirs]Dir{West, East, South, North, SouthWest, SouthEast, NorthWest, NorthEast}

// Dirs returns the directions that participate in a stencil, in a fixed
// deterministic order. The slice is shared: callers must not modify it.
func Dirs(s Stencil) []Dir {
	if s == Star {
		return allDirs[:4:4]
	}
	return allDirs[:]
}

// Subregion2D describes one rectangular piece of a 2D decomposition.
type Subregion2D struct {
	Rank   int // dense rank among active subregions; -1 if inactive
	I, J   int // position in the decomposition lattice (column, row)
	X0, Y0 int // global coordinates of the subregion's first interior node
	NX, NY int // interior node counts
	Active bool
}

// Nodes returns the number of interior nodes N of the subregion, the
// parallel grain size of section 3.
func (s Subregion2D) Nodes() int { return s.NX * s.NY }

// Decomp2D is a (J x K) decomposition of a GX x GY global grid.
type Decomp2D struct {
	JX, JY  int // subregion counts in x and y ("(5 x 4)" is JX=5, JY=4)
	GX, GY  int // global grid size
	Stencil Stencil

	// PeriodicX and PeriodicY make the lattice wrap around, so the
	// rightmost subregion neighbours the leftmost. The channel test
	// problem of section 7 is periodic in the flow direction.
	PeriodicX, PeriodicY bool

	subs   []Subregion2D // row-major by (J, I)
	active int
}

// New2D builds a uniform decomposition. The global grid need not divide
// evenly: the remainder nodes are distributed one per leading subregion,
// keeping shapes as close to identical as the paper's uniform scheme allows.
func New2D(jx, jy, gx, gy int, st Stencil) (*Decomp2D, error) {
	if jx <= 0 || jy <= 0 {
		return nil, fmt.Errorf("decomp: invalid decomposition (%d x %d)", jx, jy)
	}
	if gx < jx || gy < jy {
		return nil, fmt.Errorf("decomp: grid %dx%d smaller than decomposition (%d x %d)", gx, gy, jx, jy)
	}
	return New2DShaped(UniformShape2D(jx, jy, gx, gy), st)
}

// span splits g nodes into p pieces; piece i gets its offset and length.
// The first g%p pieces are one node longer.
func span(g, p, i int) (off, n int) {
	base := g / p
	rem := g % p
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// P returns the number of active subregions, i.e. the processor count.
func (d *Decomp2D) P() int { return d.active }

// Total returns the total number of subregions, active or not.
func (d *Decomp2D) Total() int { return d.JX * d.JY }

// Sub returns the subregion at lattice position (i, j).
func (d *Decomp2D) Sub(i, j int) *Subregion2D {
	if i < 0 || i >= d.JX || j < 0 || j >= d.JY {
		panic(fmt.Sprintf("decomp: lattice position (%d,%d) outside (%d x %d)", i, j, d.JX, d.JY))
	}
	return &d.subs[j*d.JX+i]
}

// Subregions returns all subregions in deterministic row-major order.
func (d *Decomp2D) Subregions() []Subregion2D { return d.subs }

// ActiveSubregions returns only the active subregions, rank order.
func (d *Decomp2D) ActiveSubregions() []Subregion2D {
	out := make([]Subregion2D, 0, d.active)
	for _, s := range d.subs {
		if s.Active {
			out = append(out, s)
		}
	}
	return out
}

// Deactivate marks subregion (i, j) inactive (entirely solid wall) and
// recomputes the dense ranks of the remaining active subregions. It mirrors
// the paper's figure-2 configuration where 9 of 24 subregions are walls and
// only 15 workstations are employed.
func (d *Decomp2D) Deactivate(i, j int) {
	s := d.Sub(i, j)
	if !s.Active {
		return
	}
	s.Active = false
	d.renumber()
}

// DeactivateWalls deactivates every subregion whose nodes are all solid
// according to the mask, which must be GX x GY with true = solid wall.
// It returns the number of subregions deactivated.
func (d *Decomp2D) DeactivateWalls(solid func(x, y int) bool) int {
	n := 0
	for idx := range d.subs {
		s := &d.subs[idx]
		if !s.Active {
			continue
		}
		allSolid := true
	scan:
		for y := s.Y0; y < s.Y0+s.NY; y++ {
			for x := s.X0; x < s.X0+s.NX; x++ {
				if !solid(x, y) {
					allSolid = false
					break scan
				}
			}
		}
		if allSolid {
			s.Active = false
			n++
		}
	}
	if n > 0 {
		d.renumber()
	}
	return n
}

func (d *Decomp2D) renumber() {
	r := 0
	for i := range d.subs {
		if d.subs[i].Active {
			d.subs[i].Rank = r
			r++
		} else {
			d.subs[i].Rank = -1
		}
	}
	d.active = r
}

// ByRank returns the active subregion with the given dense rank.
func (d *Decomp2D) ByRank(rank int) *Subregion2D {
	for i := range d.subs {
		if d.subs[i].Active && d.subs[i].Rank == rank {
			return &d.subs[i]
		}
	}
	panic(fmt.Sprintf("decomp: no active subregion with rank %d", rank))
}

// Neighbor returns the active neighbour of s in direction dir, or nil if
// the neighbour is outside the lattice or inactive. Only directions in the
// decomposition's stencil yield neighbours.
func (d *Decomp2D) Neighbor(s *Subregion2D, dir Dir) *Subregion2D {
	inStencil := false
	for _, dd := range Dirs(d.Stencil) {
		if dd == dir {
			inStencil = true
			break
		}
	}
	if !inStencil {
		return nil
	}
	dx, dy := dir.Delta()
	ni, nj := s.I+dx, s.J+dy
	if d.PeriodicX {
		ni = (ni + d.JX) % d.JX
	}
	if d.PeriodicY {
		nj = (nj + d.JY) % d.JY
	}
	if ni < 0 || ni >= d.JX || nj < 0 || nj >= d.JY {
		return nil
	}
	n := d.Sub(ni, nj)
	if !n.Active {
		return nil
	}
	return n
}

// Neighbors returns the active neighbours of s under the stencil, keyed by
// direction, in Dirs order.
func (d *Decomp2D) Neighbors(s *Subregion2D) map[Dir]*Subregion2D {
	out := make(map[Dir]*Subregion2D)
	for _, dir := range Dirs(d.Stencil) {
		if n := d.Neighbor(s, dir); n != nil {
			out[dir] = n
		}
	}
	return out
}

// SideCount returns the number of communicating sides (star directions with
// an active neighbour) of subregion s.
func (d *Decomp2D) SideCount(s *Subregion2D) int {
	n := 0
	for _, dir := range []Dir{West, East, South, North} {
		dx, dy := dir.Delta()
		ni, nj := s.I+dx, s.J+dy
		if d.PeriodicX {
			ni = (ni + d.JX) % d.JX
		}
		if d.PeriodicY {
			nj = (nj + d.JY) % d.JY
		}
		if ni < 0 || ni >= d.JX || nj < 0 || nj >= d.JY {
			continue
		}
		if d.Sub(ni, nj).Active {
			n++
		}
	}
	return n
}

// SurfaceFactor returns the decomposition constant m of section 8, defined
// here as the maximum number of communicating sides over the active
// subregions: the slowest subregion's surface sets the communication time
// each step. This reproduces the paper's table for (P x 1), (2 x 2),
// (4 x 4) and (5 x 4); for (3 x 3) the paper lists m = 3 (the average
// rounded) where the maximum is 4 — PaperM reproduces the published table
// verbatim for the decompositions the paper names.
func (d *Decomp2D) SurfaceFactor() int {
	m := 0
	for i := range d.subs {
		if !d.subs[i].Active {
			continue
		}
		if c := d.SideCount(&d.subs[i]); c > m {
			m = c
		}
	}
	return m
}

// MeanSideCount returns the average number of communicating sides over
// active subregions.
func (d *Decomp2D) MeanSideCount() float64 {
	if d.active == 0 {
		return 0
	}
	sum := 0
	for i := range d.subs {
		if d.subs[i].Active {
			sum += d.SideCount(&d.subs[i])
		}
	}
	return float64(sum) / float64(d.active)
}

// PaperM returns the constant m exactly as tabulated in section 8 of the
// paper for the decompositions used in its performance measurements:
//
//	(P x 1) -> 2, (2 x 2) -> 2, (3 x 3) -> 3, (4 x 4) -> 4, (5 x 4) -> 4.
//
// For decompositions outside the table it falls back to SurfaceFactor.
func (d *Decomp2D) PaperM() int {
	switch {
	case d.JY == 1 || d.JX == 1:
		return 2
	case d.JX == 2 && d.JY == 2:
		return 2
	case d.JX == 3 && d.JY == 3:
		return 3
	case d.JX == 4 && d.JY == 4:
		return 4
	case (d.JX == 5 && d.JY == 4) || (d.JX == 4 && d.JY == 5):
		return 4
	}
	return d.SurfaceFactor()
}

// MaxUnsyncSteps returns the largest possible difference in integration
// step between two processes when one process stops (appendix A):
// max(J,K)-1 under a full stencil (eq. 22), (J-1)+(K-1) under a star
// stencil (eq. 23).
func (d *Decomp2D) MaxUnsyncSteps() int {
	if d.Stencil == Full {
		if d.JX > d.JY {
			return d.JX - 1
		}
		return d.JY - 1
	}
	return (d.JX - 1) + (d.JY - 1)
}

func (d *Decomp2D) String() string {
	return fmt.Sprintf("(%d x %d) of %dx%d, %d active, %s stencil",
		d.JX, d.JY, d.GX, d.GY, d.active, d.Stencil)
}
