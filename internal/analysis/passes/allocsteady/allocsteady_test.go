package allocsteady

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestAllocSteady(t *testing.T) {
	cfg := &analysis.Config{
		AllocPath:  []string{"a"},
		AllocRoots: []string{"a.K.Step"},
	}
	analysistest.Run(t, "testdata", Analyzer, cfg, "a")
}

// TestCrossPackage exercises the facts path: dep exports its summary,
// kern imports it, and dep's allocation surfaces at kern's call site.
func TestCrossPackage(t *testing.T) {
	cfg := &analysis.Config{
		AllocPath:  []string{"dep", "kern"},
		AllocRoots: []string{"kern.S.Step"},
	}
	analysistest.Run(t, "testdata", Analyzer, cfg, "dep", "kern")
}

// TestSeededLBMRegression is the acceptance-criterion fixture: an
// append seeded into a miniature collide-stream kernel is caught.
func TestSeededLBMRegression(t *testing.T) {
	cfg := &analysis.Config{
		AllocPath:  []string{"lbmkern"},
		AllocRoots: []string{"lbmkern.Solver.Compute"},
	}
	analysistest.Run(t, "testdata", Analyzer, cfg, "lbmkern")
}

// TestFieldDispatch: sweeps reached only through function-typed fields
// (stored at construction, read on the step path) are on the graph.
func TestFieldDispatch(t *testing.T) {
	cfg := &analysis.Config{
		AllocPath:  []string{"rowkern"},
		AllocRoots: []string{"rowkern.Solver.Compute"},
	}
	analysistest.Run(t, "testdata", Analyzer, cfg, "rowkern")
}
