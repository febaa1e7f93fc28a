package lbm

import (
	"math"
	"testing"

	"repro/internal/fluid"
)

// The relax and macroscopic kernels are unrolled with literal lattice
// constants. These tests tie every literal back to the lattice tables
// (cx, cy, cz, w): on one row of interior nodes the unrolled kernels
// must reproduce, bit for bit, the table-driven loops they replace.

// kernelSample returns varied values of both signs, zeros of both signs
// included, so a wrong sign or a misplaced constant in a literal shows.
func kernelSample(k int) float64 {
	vals := []float64{0.031, -0.017, 0, math.Copysign(0, -1), 0.0042, -0.05, 0.023}
	return vals[k%len(vals)]
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestUnrolledKernels2DMatchTables(t *testing.T) {
	const nx = 7
	for _, forced := range []bool{false, true} {
		par := fluid.DefaultParams()
		if forced {
			par.ForceX, par.ForceY = 2e-5, -7e-6
		}
		s, err := NewSolver2D(nx, 1, par, allFluid)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < nx; x++ {
			s.Rho.Set(x, 0, 1+kernelSample(x))
			s.Vx.Set(x, 0, kernelSample(x+1))
			s.Vy.Set(x, 0, kernelSample(x+3))
			for i := 0; i < Q2; i++ {
				s.F[i].Set(x, 0, w2[i]*(1+kernelSample(x+i)))
			}
		}
		before := [Q2][]float64{}
		for i := range before {
			before[i] = append([]float64(nil), s.F[i].Data()...)
		}
		s.relaxRows(0, 1)
		invTau := 1 / s.Tau
		for x := 0; x < nx; x++ {
			rho, vx, vy := s.Rho.At(x, 0), s.Vx.At(x, 0), s.Vy.At(x, 0)
			v2 := float64(vx*vx) + float64(vy*vy)
			for i := 0; i < Q2; i++ {
				f := before[i][s.F[i].Idx(x, 0)]
				want := f + float64((feq2v(i, rho, vx, vy, v2)-f)*invTau)
				if forced && i > 0 {
					cg := float64(float64(cx2[i])*par.ForceX) + float64(float64(cy2[i])*par.ForceY)
					want += float64(3 * w2[i] * rho * cg)
				}
				if got := s.F[i].At(x, 0); !sameBits(got, want) {
					t.Errorf("forced=%v relax node %d population %d: %v, table gives %v", forced, x, i, got, want)
				}
			}
		}

		s.macroRows(0, 1)
		for x := 0; x < nx; x++ {
			rho, mx, my := 0.0, 0.0, 0.0
			for i := 0; i < Q2; i++ {
				f := s.F[i].At(x, 0)
				rho += f
				mx += float64(f * float64(cx2[i]))
				my += float64(f * float64(cy2[i]))
			}
			if !sameBits(s.Rho.At(x, 0), rho) || !sameBits(s.Vx.At(x, 0), mx/rho) || !sameBits(s.Vy.At(x, 0), my/rho) {
				t.Errorf("macroscopics node %d: (%v, %v, %v), table gives (%v, %v, %v)",
					x, s.Rho.At(x, 0), s.Vx.At(x, 0), s.Vy.At(x, 0), rho, mx/rho, my/rho)
			}
		}
	}
}

func TestUnrolledKernels3DMatchTables(t *testing.T) {
	const nx = 7
	open3 := func(x, y, z int) fluid.CellType { return fluid.Interior }
	for _, forced := range []bool{false, true} {
		par := fluid.DefaultParams()
		if forced {
			par.ForceX, par.ForceY, par.ForceZ = 2e-5, -7e-6, 3e-6
		}
		s, err := NewSolver3D(nx, 1, 1, par, open3)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < nx; x++ {
			s.Rho.Set(x, 0, 0, 1+kernelSample(x))
			s.Vx.Set(x, 0, 0, kernelSample(x+1))
			s.Vy.Set(x, 0, 0, kernelSample(x+3))
			s.Vz.Set(x, 0, 0, kernelSample(x+5))
			for i := 0; i < Q3; i++ {
				s.F[i].Set(x, 0, 0, w3[i]*(1+kernelSample(x+i)))
			}
		}
		before := [Q3][]float64{}
		for i := range before {
			before[i] = append([]float64(nil), s.F[i].Data()...)
		}
		s.relaxPlanes(0, 1)
		invTau := 1 / s.Tau
		for x := 0; x < nx; x++ {
			rho, vx, vy, vz := s.Rho.At(x, 0, 0), s.Vx.At(x, 0, 0), s.Vy.At(x, 0, 0), s.Vz.At(x, 0, 0)
			v2 := float64(vx*vx) + float64(vy*vy) + float64(vz*vz)
			for i := 0; i < Q3; i++ {
				f := before[i][s.F[i].Idx(x, 0, 0)]
				want := f + float64((feq3v(i, rho, vx, vy, vz, v2)-f)*invTau)
				if forced && i > 0 {
					cg := float64(float64(cx3[i])*par.ForceX) + float64(float64(cy3[i])*par.ForceY) + float64(float64(cz3[i])*par.ForceZ)
					want += float64(3 * w3[i] * rho * cg)
				}
				if got := s.F[i].At(x, 0, 0); !sameBits(got, want) {
					t.Errorf("forced=%v relax node %d population %d: %v, table gives %v", forced, x, i, got, want)
				}
			}
		}

		s.macroPlanes(0, 1)
		for x := 0; x < nx; x++ {
			rho, mx, my, mz := 0.0, 0.0, 0.0, 0.0
			for i := 0; i < Q3; i++ {
				f := s.F[i].At(x, 0, 0)
				rho += f
				mx += float64(f * float64(cx3[i]))
				my += float64(f * float64(cy3[i]))
				mz += float64(f * float64(cz3[i]))
			}
			if !sameBits(s.Rho.At(x, 0, 0), rho) || !sameBits(s.Vx.At(x, 0, 0), mx/rho) ||
				!sameBits(s.Vy.At(x, 0, 0), my/rho) || !sameBits(s.Vz.At(x, 0, 0), mz/rho) {
				t.Errorf("macroscopics node %d differs from the table sums", x)
			}
		}
	}
}

// TestUnrolledBounceBackMatchesOpposites: the literal swap pairs of the
// wall branch are the opp2/opp3 tables.
func TestUnrolledBounceBackMatchesOpposites(t *testing.T) {
	wall2 := func(x, y int) fluid.CellType { return fluid.Wall }
	s2, err := NewSolver2D(1, 1, fluid.DefaultParams(), wall2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < Q2; i++ {
		s2.F[i].Set(0, 0, float64(i+1))
	}
	s2.relaxRows(0, 1)
	for i := 0; i < Q2; i++ {
		if got, want := s2.F[i].At(0, 0), float64(opp2[i]+1); got != want {
			t.Errorf("D2Q9 population %d after bounce-back holds %v, want population %d's %v", i, got, opp2[i], want)
		}
	}

	wall3 := func(x, y, z int) fluid.CellType { return fluid.Wall }
	s3, err := NewSolver3D(1, 1, 1, fluid.DefaultParams(), wall3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < Q3; i++ {
		s3.F[i].Set(0, 0, 0, float64(i+1))
	}
	s3.relaxPlanes(0, 1)
	for i := 0; i < Q3; i++ {
		if got, want := s3.F[i].At(0, 0, 0), float64(opp3[i]+1); got != want {
			t.Errorf("D3Q15 population %d after bounce-back holds %v, want population %d's %v", i, got, opp3[i], want)
		}
	}
}
