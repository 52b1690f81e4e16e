// Command benchreport runs the repository's performance benchmark
// suite and writes a machine-readable snapshot (BENCH_<n>.json), so
// successive PRs accumulate a perf trajectory that can be diffed
// instead of re-measured from memory.
//
// Usage:
//
//	go run ./cmd/benchreport -out BENCH_<n>.json [-bench regexp] [-benchtime 2s] [-count 1] [-soak 2s]
//	go run ./cmd/benchreport -out new.json -cpus 1,2,4   # multicore lanes
//	go run ./cmd/benchreport -out new.json -scale '<scenario>' -scale-fanout 4
//	go run ./cmd/benchreport -compare old.json new.json  # diff two snapshots
//
// -out is required outside -compare mode: without it benchreport
// prints its usage and exits 2, so a bare run can never overwrite a
// committed snapshot.
//
// The default benchmark set covers the per-invocation decision
// pipeline the §5.3 overhead study cares about (simulator, policy,
// histogram, forecaster, the serving controller) plus the workload
// generator and codecs. Unless -soak 0 is given, the report also
// carries a short concurrent soak of the serving control plane
// (internal/serve) with decision-latency percentiles — the
// latency-percentile leg of the perf trajectory.
//
// -cpus runs the suite once per GOMAXPROCS value (go test -cpu) and
// records a lane per value under "multicore"; the top-level entries
// are the first listed lane. -scale runs one coldsim scenario (built
// fresh, optionally fanned out across worker processes) and records
// its wall-clock and peak process RSS under "scale" — the trace-scale
// headline measurement.
//
// When the run measures both lanes of the simulator benchmark
// (BenchmarkSimulatorHybrid and BenchmarkSimulatorHybridFast), the
// report carries a "fastmode" section: the exact-vs-fast speedup and
// the decision flip rate the equivalence harness (internal/equiv)
// measures over the benchmark population — the speedup and its
// divergence cost, side by side.
//
// -compare old.json new.json diffs two committed snapshots: shared
// benchmarks whose ns/op grew by more than -threshold percent (±5%
// by default) are regressions, rendered as a table (or JSON with
// -format json), and the exit status is nonzero when any exist — the
// CI gate on the committed perf trajectory.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Entry is one benchmark's measurement. Allocs and Bytes are -1 when
// the benchmark did not report memory statistics.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int64   `json:"iterations"`
}

// CPULane is one -cpus lane: the suite measured at one GOMAXPROCS
// value.
type CPULane struct {
	CPUs    int              `json:"cpus"`
	Entries map[string]Entry `json:"entries"`
}

// ScaleRun is the outcome of the -scale scenario: one trace-scale
// coldsim run's wall-clock and peak resident set (the largest single
// process of the run — with -scale-fanout that is the biggest worker
// or the parent, whichever peaks higher).
type ScaleRun struct {
	Scenario    string  `json:"scenario"`
	Fanout      int     `json:"fanout,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
}

// Report is the file layout: benchmark name -> measurement, plus the
// optional multicore lanes, serving-soak section and trace-scale run.
// The header pins the machine: Go version, GOMAXPROCS, CPU count and
// model — without them a ns/op trajectory across PRs is unreadable.
type Report struct {
	GeneratedAt string            `json:"generated_at"`
	GoVersion   string            `json:"go_version"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"num_cpu"`
	CPUModel    string            `json:"cpu_model,omitempty"`
	BenchTime   string            `json:"benchtime"`
	Entries     map[string]Entry  `json:"entries"`
	Multicore   []CPULane         `json:"multicore,omitempty"`
	Soak        *serve.SoakResult `json:"soak,omitempty"`
	Scale       *ScaleRun         `json:"scale,omitempty"`
	FastMode    *FastMode         `json:"fastmode,omitempty"`
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("out", "", "output file (required outside -compare mode)")
	bench := flag.String("bench", defaultBenchRegexp, "benchmark regexp passed to go test")
	benchtime := flag.String("benchtime", "2s", "per-benchmark time")
	count := flag.Int("count", 1, "benchmark repetitions (minimum ns/op is kept)")
	cpus := flag.String("cpus", "", "comma-separated GOMAXPROCS lane list (go test -cpu), e.g. 1,2,4")
	soak := flag.Duration("soak", 2*time.Second, "serving-soak length (0 disables the soak section)")
	scale := flag.String("scale", "", "coldsim scenario to run as the trace-scale measurement")
	scaleFanout := flag.Int("scale-fanout", 0, "worker processes for the -scale run (coldsim -fanout)")
	compare := flag.String("compare", "", "compare mode: old snapshot (the new one is the positional argument)")
	threshold := flag.Float64("threshold", 5, "compare mode: regression threshold in percent")
	format := flag.String("format", "table", "compare mode output: table or json")
	flag.Parse()

	if *compare != "" {
		// flag.Parse stops at the first positional, so tolerate
		// "-compare old.json new.json -format json" by re-parsing
		// whatever follows the new snapshot path.
		rest := flag.Args()
		if len(rest) < 1 {
			fmt.Fprintln(os.Stderr, "benchreport: usage: benchreport -compare old.json new.json [-threshold pct] [-format table|json]")
			os.Exit(2)
		}
		fs := flag.NewFlagSet("compare", flag.ExitOnError)
		thr := fs.Float64("threshold", *threshold, "regression threshold in percent")
		form := fs.String("format", *format, "output: table or json")
		_ = fs.Parse(rest[1:])
		if fs.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "benchreport: usage: benchreport -compare old.json new.json [-threshold pct] [-format table|json]")
			os.Exit(2)
		}
		os.Exit(runCompare(*compare, rest[0], *thr, *form))
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchreport: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	laneCPUs, err := parseCPUList(*cpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport: -cpus:", err)
		os.Exit(1)
	}

	args := []string{"test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-benchmem", "-count", strconv.Itoa(*count)}
	if *cpus != "" {
		args = append(args, "-cpu", *cpus)
	}
	args = append(args, ".")
	fmt.Fprintf(os.Stderr, "benchreport: go %v\n", args)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: go test failed: %v\n", err)
		os.Exit(1)
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //wildlint:allow wallclock
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		BenchTime:   *benchtime,
		Entries:     map[string]Entry{},
	}
	if v, err := exec.Command("go", "version").Output(); err == nil {
		rep.GoVersion = string(bytes.TrimSpace(v))
	}

	// Lanes keyed by the -N name suffix; suffix-less lines are the
	// cpu=1 lane (go test omits the suffix there).
	lanes := map[int]map[string]Entry{}
	laneFor := func(n int) map[string]Entry {
		if lanes[n] == nil {
			lanes[n] = map[string]Entry{}
		}
		return lanes[n]
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		n := 1
		if m[2] != "" {
			n, _ = strconv.Atoi(m[2][1:])
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		e := Entry{NsPerOp: ns, Iterations: iters, AllocsPerOp: -1, BytesPerOp: -1}
		if m[5] != "" {
			e.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
			e.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		// With -count > 1, keep the fastest run (least scheduler noise).
		lane := laneFor(n)
		if prev, okPrev := lane[m[1]]; !okPrev || e.NsPerOp < prev.NsPerOp {
			lane[m[1]] = e
		}
	}

	if len(laneCPUs) == 0 {
		// Single-lane run: whatever GOMAXPROCS go test used is the one
		// lane; fold all suffixes together (there is only one).
		for _, lane := range lanes {
			for name, e := range lane {
				if prev, okPrev := rep.Entries[name]; !okPrev || e.NsPerOp < prev.NsPerOp {
					rep.Entries[name] = e
				}
			}
		}
	} else {
		for _, n := range laneCPUs {
			rep.Multicore = append(rep.Multicore, CPULane{CPUs: n, Entries: laneFor(n)})
		}
		// The top-level entries are the first listed lane, so diffs
		// against single-lane reports stay meaningful.
		rep.Entries = laneFor(laneCPUs[0])
	}

	if fm := fastModeSection(rep.Entries); fm != nil {
		rep.FastMode = fm
		fmt.Fprintf(os.Stderr,
			"benchreport: fastmode  %.2fx speedup  flip rate %.4f%% (%d/%d)\n",
			fm.Speedup, fm.FlipRate*100, fm.Flips, fm.Invocations)
	}

	if *soak > 0 {
		res, err := serve.Soak(context.Background(), serve.SoakConfig{Duration: *soak})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport: soak:", err)
			os.Exit(1)
		}
		rep.Soak = res
		fmt.Fprintf(os.Stderr,
			"benchreport: soak %s  %.0f decisions/s  p50 %v  p99 %v  p99.9 %v\n",
			res.Policy, res.ThroughputPerSec, res.P50, res.P99, res.P999)
	}

	if *scale != "" {
		res, err := runScale(*scale, *scaleFanout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport: scale:", err)
			os.Exit(1)
		}
		rep.Scale = res
		fmt.Fprintf(os.Stderr, "benchreport: scale  %.1fs wall  %.0f MB peak RSS\n",
			res.WallSeconds, res.PeakRSSMB)
	}

	printTable(&rep, laneCPUs)

	data, err := json.MarshalIndent(&rep, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", *out, len(rep.Entries))
}

// printTable renders the human summary: one row per benchmark; with
// -cpus lanes, one ns/op column per lane.
func printTable(rep *Report, laneCPUs []int) {
	names := make([]string, 0, len(rep.Entries))
	for n := range rep.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(rep.Multicore) == 0 {
		for _, n := range names {
			e := rep.Entries[n]
			fmt.Printf("%-34s %14.1f ns/op %8d allocs/op\n", n, e.NsPerOp, e.AllocsPerOp)
		}
		return
	}
	fmt.Printf("%-34s", "benchmark")
	for _, c := range laneCPUs {
		fmt.Printf(" %12s", fmt.Sprintf("cpu=%d ns/op", c))
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("%-34s", n)
		for _, lane := range rep.Multicore {
			if e, ok := lane.Entries[n]; ok {
				fmt.Printf(" %12.1f", e.NsPerOp)
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		fmt.Println()
	}
}

// parseCPUList parses "1,2,4" into its lane values.
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad cpu count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// cpuModel reads the CPU model name (linux; empty elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// runScale builds coldsim and runs the scenario once, measuring
// wall-clock and the run's peak per-process resident set (from the
// child's rusage, which folds in its waited-for fan-out workers).
func runScale(scenario string, fanout int) (*ScaleRun, error) {
	tmp, err := os.MkdirTemp("", "benchreport-scale-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "coldsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/coldsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building coldsim: %w", err)
	}

	args := []string{"-scenario", scenario, "-format", "csv"}
	if fanout > 0 {
		args = append(args, "-fanout", strconv.Itoa(fanout))
	}
	fmt.Fprintf(os.Stderr, "benchreport: coldsim %v\n", args)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr // the CSV report is progress output here
	cmd.Stderr = os.Stderr
	start := time.Now() //wildlint:allow wallclock
	runErr := cmd.Run()
	wall := time.Since(start) //wildlint:allow wallclock
	if runErr != nil {
		return nil, fmt.Errorf("coldsim: %w", runErr)
	}
	res := &ScaleRun{
		Scenario:    scenario,
		Fanout:      fanout,
		WallSeconds: wall.Seconds(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // linux reports KB
	}
	return res, nil
}

// defaultBenchRegexp selects the perf-critical suite: the decision
// pipeline end to end plus generators and codecs. The per-figure
// regeneration benchmarks are excluded by default (they are dominated
// by the same simulator paths and would stretch the run severalfold);
// pass -bench 'Benchmark' for everything.
const defaultBenchRegexp = `BenchmarkSimulator|BenchmarkCluster|BenchmarkPolicyOverhead|BenchmarkHistogram|BenchmarkARIMAFit|BenchmarkExpSmoothingFit|BenchmarkProd|BenchmarkWorkloadGeneration|BenchmarkTraceCSVRoundTrip|BenchmarkServeDecide`
