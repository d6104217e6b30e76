// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's library entry points for a fixed
// wall-clock budget, checks every result, and prints the workload's
// metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload timed-compute --seed 1 --seconds 30 --trace 0
//
// With -trace 0 the line carries the end-to-end metrics (host wall time,
// measured without tracing); with -trace 1 it carries the per-layer
// metrics of a traced run. BENCHMARK.json at the repository root lists
// the workloads, the metrics, and the maps from layers to end-to-end
// metrics and from function names to layers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// defaultSeed is the seed the pinned digests in pins.json were taken at.
const defaultSeed = 1

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the CPU profile of a traced run.
	outDir string
	// setupRuns is how many fresh processes are timed for setup_s.
	setupRuns int
	// minPasses is the least number of passes per measured phase.
	minPasses int
}

// metric is one named value of the result line.
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

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	var (
		opts      options
		tr        int
		writePins bool
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&opts.seed, "seed", defaultSeed, "seed for the generated inputs (kgen windows, serve request mix)")
	flag.Float64Var(&opts.seconds, "seconds", 30, "measured wall-clock seconds")
	flag.IntVar(&tr, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&opts.outDir, "out", ".bench_build", "directory for the CPU profile of a traced run")
	flag.BoolVar(&writePins, "write-pins", false, "run one pass at the default seed and record its digests in perfbench/pins.json")
	flag.Parse()
	opts.trace = tr == 1
	opts.setupRuns = 21
	opts.minPasses = 3
	if tr != 0 && tr != 1 {
		fatalf("-trace must be 0 or 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if writePins {
		if err := recordPins(ctx, filepath.Join("perfbench", "pins.json")); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := run(ctx, opts, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", line)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run performs one invocation: set-up, the measured passes, the checks,
// and the metrics of the requested kind. Human-readable provenance and
// detail go to log; the caller prints the result line.
func run(ctx context.Context, opts options, log io.Writer) (*result, error) {
	mk, ok := workloadByName[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames())
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	b, err := mk(ctx, opts.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()

	writeProvenance(log, opts, b)
	chk := newChecker(pins[opts.workload], log)
	var metrics map[string]metric
	if opts.trace {
		metrics, err = measureLayers(ctx, b, chk, opts)
	} else {
		metrics, err = measureEndToEnd(ctx, b, chk, opts)
	}
	if err != nil {
		return nil, err
	}
	writeMetrics(log, metrics)
	fmt.Fprintf(log, "# ops attempted=%d failed=%d pinned=%d\n", chk.attempted, chk.failed, chk.pinned)
	return &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}, nil
}

// writeMetrics prints every metric by name with its unit, sorted.
func writeMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// writeProvenance records which build, machine, seed and inputs produced
// the numbers that follow.
func writeProvenance(w io.Writer, opts options, b bench) {
	rev, dirty := revision()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", opts.workload, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(w, "# revision=%s dirty=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		rev, dirty, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# inputs: %s\n", b.describe())
}
