// Command perfbench is mklite's performance benchmark. It runs one named
// workload against the simulator, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figure4 --seed 1 --seconds 20 --trace 0
//
// The process started by run.sh is a parent: every measured run is a fresh
// child process of the same binary, so nothing one run memoises carries
// into the next. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"mklite/internal/stats"
)

// minRuns is the fewest timed child runs a measurement makes, however short
// --seconds is.
const minRuns = 3

// childTimeout bounds one child process, so that an invocation ends in
// bounded time even if a child hangs.
const childTimeout = 150 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run, reported as medians over runs.
// CPU time is not among them: on a shared host the same run's CPU time
// drifts by ±15% from one minute to the next, a run-to-run spread close to
// the largest bound a regression gate may use, so the parent prints it as a
// diagnostic.
var endToEnd = []metricDef{
	{"allocs", "count"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// childResult is what one child process reports on its standard output.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	CPUS      float64            `json:"cpu_s"`
	WallS     float64            `json:"wall_s"`
	Allocs    float64            `json:"allocs"`
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Digest    string             `json:"digest"`
	Err       string             `json:"error,omitempty"`
	Samples   map[string]int64   `json:"samples,omitempty"` // traced: CPU-profile samples per layer
	Layer     map[string]float64 `json:"layer,omitempty"`   // traced with extras: span, count and probe metrics
}

func (r childResult) metric(name string) float64 {
	switch name {
	case "allocs":
		return r.Allocs
	case "alloc_mb":
		return r.AllocMB
	case "peak_rss_mb":
		return r.PeakRSSMB
	case "setup_s":
		return r.SetupS
	}
	panic("perfbench: unknown metric " + name)
}

// memStats returns the heap objects and MB allocated so far.
func memStats() (allocs, mb float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs), float64(ms.TotalAlloc) / 1e6
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run once in this process (timed or traced)")
	out := flag.String("out", "", "internal: traced run's artifact path prefix")
	extras := flag.Bool("extras", false, "internal: traced run also takes span, count and probe metrics")
	flag.Parse()

	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	switch *child {
	case "timed":
		emit(timedRun(*name, *seed))
	case "traced":
		emit(tracedRun(*name, *seed, *out, *extras))
	case "":
		os.Exit(drive(*name, *seed, *seconds, *traceFlag == 1))
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child mode %q\n", *child)
		os.Exit(2)
	}
}

func emit(r childResult) {
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// failed records err in the result.
func (r childResult) failed(err error) childResult {
	r.Err = err.Error()
	return r
}

// timedRun is one measured child run with tracing off.
func timedRun(name string, seed uint64) childResult {
	var r childResult
	w, err := newWorkload(name, seed)
	if err != nil {
		return r.failed(err)
	}
	r.SetupS = cpuSeconds()

	allocs, allocMB := memStats()
	cpu0, wall0 := cpuSeconds(), wallNow()
	err = w.run(nil)
	r.CPUS = cpuSeconds() - cpu0
	r.WallS = wallNow().Sub(wall0).Seconds()
	allocs1, allocMB1 := memStats()
	r.Allocs, r.AllocMB = allocs1-allocs, allocMB1-allocMB
	r.PeakRSSMB = peakRSSMB()
	if err != nil {
		return r.failed(err)
	}
	if r.Digest, err = w.check(); err != nil {
		return r.failed(err)
	}
	return r
}

// spawn runs one child process and decodes its report.
func spawn(exe string, name string, seed uint64, args ...string) (childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args = append([]string{"-workload", name, "-seed", fmt.Sprint(seed)}, args...)
	cmd := exec.CommandContext(ctx, exe, args...)
	// One P: the workloads run at par width 1, and a second P would let
	// idle-priority GC mark workers burn CPU that varies from run to run.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return childResult{}, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("child %v: %s", args, r.Err)
	}
	return r, nil
}

// set is the outcome of one invocation's child runs.
type set struct {
	runs      []childResult // successful runs
	attempted int
	failed    int
}

func (s *set) add(r childResult, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	s.runs = append(s.runs, r)
}

// checkDigests wants every run of a set to have produced the same
// simulated output; it returns how many runs disagree with the first.
func checkDigests(digests []string) int {
	bad := 0
	for _, d := range digests[1:] {
		if d != digests[0] {
			bad++
		}
	}
	return bad
}

// measured is one reported metric value.
type measured struct {
	metricDef
	value float64
}

// since returns a function reporting the seconds elapsed since now.
func since() func() float64 {
	start := wallNow()
	return func() float64 { return wallNow().Sub(start).Seconds() }
}

// timed runs timed children for the given seconds (at least minRuns) and
// returns each end-to-end metric's median over the successful ones.
func timed(s *set, exe, name string, seed uint64, seconds float64) []measured {
	elapsed := since()
	for s.attempted < minRuns || elapsed() < seconds {
		s.add(spawn(exe, name, seed, "-child", "timed"))
	}
	if len(s.runs) == 0 {
		return nil
	}
	var out []measured
	for _, d := range endToEnd {
		vals := make([]float64, len(s.runs))
		for i, r := range s.runs {
			vals[i] = r.metric(d.name)
		}
		out = append(out, measured{d, stats.Median(vals)})
	}
	return out
}

// traced runs one clean timed child as a reference, then traced children
// for the given seconds, and returns the per-layer metrics: CPU shares from
// the merged profiles of every traced child, everything else from the
// first, which also takes the span, count and probe metrics.
func traced(s *set, exe, name string, seed uint64, seconds float64) ([]measured, error) {
	elapsed := since()
	out := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	clean, cleanErr := spawn(exe, name, seed, "-child", "timed")
	s.add(clean, cleanErr)
	counts := map[string]int64{}
	var layer map[string]float64
	var tracedCPU []float64
	for i := 0; i == 0 || elapsed() < seconds; i++ {
		args := []string{"-child", "traced", "-out", fmt.Sprintf("%s.%d", out, i)}
		if i == 0 {
			args = append(args, "-extras")
		}
		r, err := spawn(exe, name, seed, args...)
		s.add(r, err)
		if err != nil {
			continue
		}
		for l, n := range r.Samples {
			counts[l] += n
		}
		if i == 0 {
			layer = r.Layer
		}
		tracedCPU = append(tracedCPU, r.CPUS)
	}
	if cleanErr != nil || layer == nil {
		return nil, nil
	}
	shares, total := layerShares(counts)
	for l, v := range shares {
		layer[shareMetric(l)] = v
	}
	layer["profile.samples"] = float64(total)
	layer["host.cpu_s"] = clean.CPUS
	// The traced runs' overhead: their workload call's CPU time over the
	// clean run's.
	layer["trace.overhead_pct"] = (stats.Median(tracedCPU)/clean.CPUS - 1) * 100
	fmt.Printf("# traced runs: spans in %s.0.spans.json, CPU profiles in %s.<i>.pprof\n", out, out)
	var m []measured
	for _, d := range perLayer {
		m = append(m, measured{d, layer[d.name]})
	}
	return m, nil
}

func drive(name string, seed uint64, seconds float64, trace bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var s set
	var metrics []measured
	if trace {
		metrics, err = traced(&s, exe, name, seed, seconds)
	} else {
		metrics = timed(&s, exe, name, seed, seconds)
	}
	if err != nil || len(metrics) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no measurement succeeded", err)
		return 1
	}
	digests := make([]string, len(s.runs))
	cpus := make([]float64, len(s.runs))
	walls := make([]float64, len(s.runs))
	for i, r := range s.runs {
		digests[i], cpus[i], walls[i] = r.Digest, r.CPUS, r.WallS
	}
	if bad := checkDigests(digests); bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d runs produced a different simulated output than the first\n", bad)
		s.failed += bad
	}

	fmt.Printf("# workload %s, seed %d: %d runs attempted, %d failed, error_rate %.4g\n",
		name, seed, s.attempted, s.failed, float64(s.failed)/float64(s.attempted))
	fmt.Printf("# output digest %s\n", digests[0])
	fmt.Printf("# host cpu_s %.4f, wall_s %.4f (medians over this invocation's runs, diagnostic only)\n", stats.Median(cpus), stats.Median(walls))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	report := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		fmt.Printf("%-40s %14.6g %s\n", m.name, m.value, m.unit)
		report.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
