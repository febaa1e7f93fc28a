package repro_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/fluid"
	"repro/internal/lbm"
)

// Golden field hashes: SHA-256 of every field of every solver, ghost
// layers included (DumpFields returns raw storage, exactly what a
// migration dump carries), after a fixed number of steps. Any change to
// kernel arithmetic, evaluation order or ghost writes changes a hash.
//
// Regenerate (only for an intended numerical change) with
//
//	go test -run TestKernelGoldenHashes -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*_golden.txt files of the tests that run")

const (
	goldenFile  = "testdata/kernel_golden.txt"
	goldenSteps = 16
)

// goldenPattern is a deterministic, integer-derived perturbation in
// [-0.008, 0.008]: no transcendental functions, so the initial state
// does not depend on the math library.
func goldenPattern(x, y, z int) float64 {
	return float64((x*7+y*13+z*5)%17-8) / 1e3
}

// goldenParams drives the walled case: body force on every axis, an
// inlet jet, and the filter on, so the forced relax path and every
// boundary branch run.
func goldenParams(forced bool) fluid.Params {
	par := fluid.DefaultParams()
	par.Nu = 0.05
	par.Eps = 0.01
	if forced {
		par.ForceX, par.ForceY, par.ForceZ = 1e-5, -3e-6, 2e-6
		par.InletVx, par.InletVy, par.InletVz = 0.04, 0.01, -0.005
	}
	return par
}

// walledMask2D has channel walls, an inlet and an outlet column and an
// interior obstacle, so every cell-type branch and mixed rows occur.
func walledMask2D(nx, ny int) func(x, y int) fluid.CellType {
	m := fluid.ChannelMask2D(nx, ny)
	m.FillRect(0, 1, 1, ny-1, fluid.Inlet)
	m.FillRect(nx-1, 1, nx, ny-1, fluid.Outlet)
	m.FillRect(nx/3, ny/3, nx/3+3, ny/3+4, fluid.Wall)
	return m.At
}

func walledMask3D(nx, ny, nz int) func(x, y, z int) fluid.CellType {
	m := fluid.ChannelMask3D(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 1; y < ny-1; y++ {
			m.Set(0, y, z, fluid.Inlet)
			m.Set(nx-1, y, z, fluid.Outlet)
		}
	}
	for z := nz / 3; z < nz/3+2; z++ {
		for y := ny / 3; y < ny/3+3; y++ {
			m.Set(nx/2, y, z, fluid.Wall)
		}
	}
	return m.At
}

func open2D(x, y int) fluid.CellType    { return fluid.Interior }
func open3D(x, y, z int) fluid.CellType { return fluid.Interior }

// seed2D / seed3D overwrite the interior fluid variables with the
// perturbation pattern; ghosts keep their constructor values.
func seed2D(nx, ny int, set func(x, y int, rho, vx, vy float64)) {
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			p := goldenPattern(x, y, 0)
			set(x, y, 1+p, p/4, -p/8)
		}
	}
}

func seed3D(nx, ny, nz int, set func(x, y, z int, rho, vx, vy, vz float64)) {
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				p := goldenPattern(x, y, z)
				set(x, y, z, 1+p, p/4, -p/8, p/16)
			}
		}
	}
}

const (
	gNX, gNY       = 23, 19 // odd sizes: 7 workers get uneven slabs
	gNX3, gNY3, gZ = 9, 8, 7
)

// goldenMethods build one solver each, run goldenSteps steps at the given
// intra-rank worker count, and return its dump fields.
var goldenMethods = []struct {
	name string
	run  func(walled bool, workers int) (map[string][]float64, error)
}{
	{"lb2d", func(walled bool, workers int) (map[string][]float64, error) {
		mask := open2D
		if walled {
			mask = walledMask2D(gNX, gNY)
		}
		s, err := lbm.NewSolver2D(gNX, gNY, goldenParams(walled), mask)
		if err != nil {
			return nil, err
		}
		seed2D(gNX, gNY, func(x, y int, rho, vx, vy float64) {
			s.Rho.Set(x, y, rho)
			s.Vx.Set(x, y, vx)
			s.Vy.Set(x, y, vy)
		})
		s.InitEquilibrium()
		s.SetWorkers(workers)
		for n := 0; n < goldenSteps; n++ {
			s.StepSerial(!walled, !walled)
		}
		return s.DumpFields(), nil
	}},
	{"lb3d", func(walled bool, workers int) (map[string][]float64, error) {
		mask := open3D
		if walled {
			mask = walledMask3D(gNX3, gNY3, gZ)
		}
		s, err := lbm.NewSolver3D(gNX3, gNY3, gZ, goldenParams(walled), mask)
		if err != nil {
			return nil, err
		}
		seed3D(gNX3, gNY3, gZ, func(x, y, z int, rho, vx, vy, vz float64) {
			s.Rho.Set(x, y, z, rho)
			s.Vx.Set(x, y, z, vx)
			s.Vy.Set(x, y, z, vy)
			s.Vz.Set(x, y, z, vz)
		})
		s.InitEquilibrium()
		s.SetWorkers(workers)
		for n := 0; n < goldenSteps; n++ {
			// The walled case stays periodic in z, so the exchange path
			// runs in both cases.
			s.StepSerial(!walled, !walled, true)
		}
		return s.DumpFields(), nil
	}},
	{"fd2d", func(walled bool, workers int) (map[string][]float64, error) {
		mask := open2D
		if walled {
			mask = walledMask2D(gNX, gNY)
		}
		s, err := fd.NewSolver2D(gNX, gNY, goldenParams(walled), mask)
		if err != nil {
			return nil, err
		}
		seed2D(gNX, gNY, func(x, y int, rho, vx, vy float64) {
			s.Rho.Set(x, y, rho)
			s.Vx.Set(x, y, vx)
			s.Vy.Set(x, y, vy)
		})
		s.SetWorkers(workers)
		for n := 0; n < goldenSteps; n++ {
			s.StepSerial(!walled, !walled)
		}
		return s.DumpFields(), nil
	}},
	{"fd3d", func(walled bool, workers int) (map[string][]float64, error) {
		mask := open3D
		if walled {
			mask = walledMask3D(gNX3, gNY3, gZ)
		}
		s, err := fd.NewSolver3D(gNX3, gNY3, gZ, goldenParams(walled), mask)
		if err != nil {
			return nil, err
		}
		seed3D(gNX3, gNY3, gZ, func(x, y, z int, rho, vx, vy, vz float64) {
			s.Rho.Set(x, y, z, rho)
			s.Vx.Set(x, y, z, vx)
			s.Vy.Set(x, y, z, vy)
			s.Vz.Set(x, y, z, vz)
		})
		s.SetWorkers(workers)
		for n := 0; n < goldenSteps; n++ {
			s.StepSerial(!walled, !walled, true)
		}
		return s.DumpFields(), nil
	}},
}

// fieldHash is the SHA-256 of a field's raw float64 bits, little-endian.
func fieldHash(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readGolden parses a golden file of "key sum" lines; blank lines and
// lines starting with # are skipped.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("reading golden hashes: %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeGolden rewrites a golden file: the header comment, then one
// "key sum" line per entry in key order.
func writeGolden(t *testing.T, path, header string, got map[string]string) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", header)
	for _, k := range slices.Sorted(maps.Keys(got)) {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKernelGoldenHashes pins every field of lb2d, lb3d, fd2d and fd3d,
// on a walled inlet/outlet/obstacle mask with forcing and on a fully
// periodic mask, at 1, 2 and 7 intra-rank workers. All worker counts
// must produce the pinned bits.
//
// The test runs on amd64 only. The pinned bits were produced there, and
// bit-identity across architectures is a separate property: the Go spec
// lets a compiler fuse x*y+z on targets with fused multiply-add (arm64,
// ppc64, s390x, riscv64), and only the kernels are checked to be free of
// fused operations (the CI objdump step). Other code a run passes through
// carries no such check, so a hash mismatch there would not identify a
// kernel regression.
func TestKernelGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden field hashes are pinned on amd64; GOARCH=%s may fuse multiply-adds outside the checked kernels", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, m := range goldenMethods {
		for _, walled := range []bool{true, false} {
			mask := "periodic"
			if walled {
				mask = "walled"
			}
			for _, w := range []int{1, 2, 7} {
				fields, err := m.run(walled, w)
				if err != nil {
					t.Fatalf("%s/%s: %v", m.name, mask, err)
				}
				for _, name := range slices.Sorted(maps.Keys(fields)) {
					key := m.name + "/" + mask + "/" + name
					for _, v := range fields[name] {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: non-finite value %v; the golden run must stay stable", key, v)
						}
					}
					sum := fieldHash(fields[name])
					if prev, ok := got[key]; ok && prev != sum {
						t.Errorf("%s: workers=%d hash %s differs from workers=1 hash %s", key, w, sum[:12], prev[:12])
						continue
					}
					got[key] = sum
				}
			}
		}
	}
	if *updateGolden {
		writeGolden(t, goldenFile, fmt.Sprintf("SHA-256 of every solver field (ghosts included) after %d steps; see kernel_golden_test.go.", goldenSteps), got)
		return
	}
	compareGolden(t, readGolden(t, goldenFile), got)
}

// compareGolden reports every pinned key that was not produced and every
// produced hash that differs from its pin.
func compareGolden(t *testing.T, want, got map[string]string) {
	t.Helper()
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned key not produced", k)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if want[k] != got[k] {
			t.Errorf("%s: hash %s, pinned %s", k, got[k], want[k])
		}
	}
}
