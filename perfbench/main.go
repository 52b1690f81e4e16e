// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks the program's outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) by
// name and unit. See README.md for the workloads and how to read the
// numbers. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	wild "repro"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every untraced run reports.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"inv_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_us", "us"},
}

// layerDefs are the per-layer metrics every traced run reports; a
// layer the workload never calls reports 0.
var layerDefs = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.apps", "count"},
	{"trace.invocations", "count"},
	{"trace.bytes", "bytes"},
	{"trace.ns_per_inv", "ns"},
	{"workload.gen_s", "s"},
	{"trace.encode_s", "s"},
	{"policy.decide_s", "s"},
	{"policy.apps", "count"},
	{"policy.runs", "count"},
	{"policy.runs_per_inv", "ratio"},
	{"policy.mode_histogram_share", "ratio"},
	{"policy.mode_arima_share", "ratio"},
	{"policy.mode_standard_share", "ratio"},
	{"policy.next_windows_ns", "ns"},
	{"sim.self_s", "s"},
	{"sim.ns_per_inv", "ns"},
	{"cluster.self_s", "s"},
	{"cluster.ns_per_inv", "ns"},
	{"cluster.evictions", "count"},
	{"cluster.eviction_cold_share", "ratio"},
	{"cluster.util_pct", "%"},
	{"cluster.scaling_2v1", "ratio"},
	{"metrics.consume_s", "s"},
	{"metrics.consumes", "count"},
	{"scenario.self_s", "s"},
	{"scenario.fanout_ipc_s", "s"},
	{"platform.serve_p50_us", "us"},
	{"platform.serve_p99_us", "us"},
	{"platform.serve_samples", "count"},
	{"platform.http_self_us", "us"},
	{"platform.invoke_self_us", "us"},
	{"platform.cold_starts_timed", "count"},
	{"platform.prewarms", "count"},
	{"serve.decide_self_ns", "ns"},
	{"serve.decisions", "count"},
	{"runtime.alloc_bytes_per_inv", "bytes"},
	{"runtime.gc_pause_ms", "ms/s"},
	{"tracing.overhead_share", "ratio"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string // scratch directory for generated inputs and span dumps
}

// window is the measured time of one phase.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// result is what a workload run hands back for printing.
type result struct {
	attempted, failed int64
	values            map[string]float64 // metric name → value
	notes             []string           // human-readable lines printed before the JSON
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"sim-sweep":        func(c config) (*result, error) { return runTraceWorkload(c, simSweep) },
	"cluster-pressure": func(c config) (*result, error) { return runTraceWorkload(c, clusterPressure) },
	"scale-fanout":     func(c config) (*result, error) { return runTraceWorkload(c, scaleFanout) },
	"serve-invoke":     runServeInvoke,
}

func main() {
	// RunSweepProcs re-executes this binary as its worker processes.
	wild.MaybeRunScenarioWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 12, "measured seconds per phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.traced = traceFlag == 1
	cfg.dir = filepath.Join(".bench_build", "perfbench", "run")
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	env := environment(cfg)
	fmt.Fprintf(stdout, "# env %s\n", env)
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	defs := e2eDefs
	if cfg.traced {
		defs = layerDefs
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]jsonValue{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !cfg.traced {
			fmt.Fprintf(stderr, "perfbench: %s reported no %s\n", cfg.workload, d.name)
			return 1
		}
		out.Metrics[d.name] = jsonValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "# %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS hands the heap that earlier work left behind back to
// the OS and restarts the kernel's count of this process's peak
// resident set (VmHWM) from the current one, so that the next vmHWM
// measures only what follows: the run, not the set-up.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// childPeakMB returns the largest peak resident set of the waited-for
// child processes, in MB.
func childPeakMB() (float64, error) {
	var kids syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids); err != nil {
		return 0, err
	}
	return float64(kids.Maxrss) / 1024, nil // KiB on Linux
}

// vmHWM reads the process's peak resident set from /proc, in MB.
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeCounters are the Go runtime's cumulative allocation and GC
// pause totals, for per-phase deltas.
type runtimeCounters struct{ allocBytes, pauseNs uint64 }

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// setRuntimeLayer fills the runtime layer from the counters of a phase
// that simulated or served invs invocations in wall seconds.
func setRuntimeLayer(v map[string]float64, before, after runtimeCounters, invs int64, wall float64) {
	if invs > 0 {
		v["runtime.alloc_bytes_per_inv"] = float64(after.allocBytes-before.allocBytes) / float64(invs)
	}
	if wall > 0 {
		v["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / wall
	}
}
