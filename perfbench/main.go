// Command perfbench is the repository's benchmark. It runs one workload
// in-process through the public entry points, checks every output for
// correctness, and prints the metrics of BENCHMARK.json as the last line
// of its standard output:
//
//	perfbench -workload lb2d-flue-hub -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it alternates untraced and traced repetitions and
// reports the per-layer metrics derived from the traced spans, plus the
// tracing overhead. The spans of the last traced repetition are written
// as JSON under -out; `perfbench summarize <file>` re-derives each
// layer's self time from such a file.
//
// RATIONALE.md in this directory records why each workload was chosen,
// which layers it stresses and which it bypasses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the host, toolchain and inputs of a result.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Trace      bool   `json:"trace"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		if err := summarizeCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the repetitions run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced repetitions and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory for sync files, registries and checkpoints")
	flag.StringVar(&o.out, "out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1, not %d", *traceFlag)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	mk, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}

	st := stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Trace:      o.trace,
	}
	sj, err := json.Marshal(st)
	if err != nil {
		fatalf("stamp: %v", err)
	}
	fmt.Printf("stamp %s\n", sj)

	workdir, err := os.MkdirTemp(mkdirAll(o.workdir), o.workload+"-")
	if err != nil {
		fatalf("workdir: %v", err)
	}
	defer os.RemoveAll(workdir)
	o.workdir = workdir

	res, err := run(mk(o), o, st)
	if err != nil {
		os.RemoveAll(workdir)
		fatalf("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("result: %v", err)
	}
	fmt.Println(string(line))
}

// options are the command-line settings one run works under.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	out      string
	// slowCompute, when true, makes the Program wrapper of the simulation
	// workloads spin for an extra 20% of every Compute call; the
	// sensitivity self-check sets it.
	slowCompute bool
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID is the commit run.sh found, or "unknown" outside a git checkout.
func commitID() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// writeTrace stores a traced repetition's spans with the run's stamp.
func writeTrace(dir string, st stamp, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf.Stamp = st
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", st.Workload, st.Seed))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
