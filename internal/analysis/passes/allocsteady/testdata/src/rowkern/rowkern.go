// Package rowkern is a miniature of the solvers' row-slab dispatch: the
// sweeps are method values stored in fields at construction and handed
// to a parallel-for on every step, so no direct call edge reaches them.
// A make seeded into one sweep must still be caught.
package rowkern

type Solver struct {
	f, g    []float64
	relaxFn func(lo, hi int)
	shiftFn func(lo, hi int)
}

func New(n int) *Solver {
	s := &Solver{f: make([]float64, n), g: make([]float64, n)}
	s.relaxFn = s.relaxRows
	s.shiftFn = s.shiftRows
	return s
}

func run(n int, fn func(lo, hi int)) { fn(0, n) }

func (s *Solver) Compute() {
	run(len(s.f), s.relaxFn)
	s.shiftFn(0, len(s.f))
}

func (s *Solver) relaxRows(lo, hi int) {
	tmp := make([]float64, hi-lo) // want `make on the zero-alloc steady path \(reachable from rowkern\.Solver\.Compute\)`
	copy(tmp, s.f[lo:hi])
}

func (s *Solver) shiftRows(lo, hi int) {
	copy(s.g[lo:hi], s.f[lo:hi])
}
