package mklite

import (
	"fmt"
	"strings"

	"mklite/internal/apps"
	"mklite/internal/experiments"
	"mklite/internal/fault"
	"mklite/internal/ltp"
	"mklite/internal/sched"
	"mklite/internal/stats"
)

// ExperimentConfig controls figure/table regeneration.
type ExperimentConfig struct {
	// Reps per data point (paper: 5; plotted as median with min/max).
	Reps int
	// Seed is the base seed; repetition i runs on the independent
	// SplitMix64 stream seed derived from (Seed, i).
	Seed uint64
	// Quick restricts sweeps to three node counts per application.
	Quick bool
	// Workers bounds the parallel fan-out over independent runs
	// (repetitions, grid cells, applications): 0 uses GOMAXPROCS,
	// 1 forces sequential execution. Output is identical either way.
	Workers int
	// Counters aggregates mechanism counters across every run behind a
	// figure into Figure.Counters (rendered output is unchanged).
	Counters bool
	// Metrics aggregates latency histograms, phase accounting and gauges
	// across every run behind a figure into Figure.MetricsText (rendered
	// figure output is unchanged).
	Metrics bool
	// Faults schedules deterministic fault injection for every run behind
	// a figure that carries no job-level plan of its own — a job-level
	// plan wins outright (see ParseFaults and docs/FAULTS.md,
	// "Precedence"). A nil or empty plan leaves all output byte-identical
	// to a faultless run.
	Faults *fault.Plan
	// SLO is an optional service-level objective spec (the internal/obs
	// grammar, e.g. "utilization_pct>=50;wait_p99_sec<=7200") evaluated
	// against every facility-comparison leg; see DefaultFacilitySLO. The
	// empty spec leaves all output byte-identical.
	SLO string
	// Sched forces a scheduling policy ("cfs", "rr", "coop", "gang",
	// "tickless", "adaptive"; see docs/SCHED.md) onto every run that does
	// not pick one of its own — the schedsweep grid keeps its per-cell
	// choices. Empty keeps each kernel's default, leaving all output
	// byte-identical.
	Sched string
}

func (c ExperimentConfig) internal() experiments.Config {
	return experiments.Config{Reps: c.Reps, Seed: c.Seed, Quick: c.Quick,
		Workers: c.Workers, Counters: c.Counters, Metrics: c.Metrics,
		Faults: c.Faults, SLO: c.SLO, Sched: sched.Kind(c.Sched)}
}

// Point is one measurement of a scaling series.
type Point struct {
	Nodes  int
	Median float64
	Min    float64
	Max    float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// Figure is one plot of the paper.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	// Counters holds the merged mechanism counters of the runs behind
	// the figure when ExperimentConfig.Counters was set. Render ignores
	// it, so figure text is identical with and without counting.
	Counters map[string]int64
	// MetricsText holds the rendered mklite-metrics report of the merged
	// runs behind the figure when ExperimentConfig.Metrics was set.
	// Render ignores it too.
	MetricsText string
}

// Get returns the named series or nil.
func (f *Figure) Get(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string { return toStatsFigure(f).Render() }

func fromStatsFigure(sf *stats.Figure) Figure {
	out := Figure{ID: sf.ID, Title: sf.Title, Counters: sf.Counters, MetricsText: sf.MetricsText}
	for _, s := range sf.Series {
		ns := Series{Name: s.Name, Unit: s.Unit}
		for _, p := range s.Points {
			ns.Points = append(ns.Points, Point{Nodes: p.Nodes, Median: p.Median, Min: p.Min, Max: p.Max})
		}
		out.Series = append(out.Series, ns)
	}
	return out
}

func toStatsFigure(f *Figure) *stats.Figure {
	sf := &stats.Figure{ID: f.ID, Title: f.Title}
	for _, s := range f.Series {
		ns := &stats.Series{Name: s.Name, Unit: s.Unit}
		for _, p := range s.Points {
			ns.Points = append(ns.Points, stats.Point{
				Nodes:   p.Nodes,
				Summary: stats.Summary{Median: p.Median, Min: p.Min, Max: p.Max},
			})
		}
		sf.Series = append(sf.Series, ns)
	}
	return sf
}

// ReproduceFigure4 regenerates the paper's Figure 4: one absolute
// three-kernel figure per application, plus the cross-application summary
// (median and best relative improvement). Use Relative to obtain the
// paper's normalised presentation of any returned figure.
func ReproduceFigure4(cfg ExperimentConfig) ([]Figure, Figure4Summary, error) {
	figs, err := experiments.Figure4(cfg.internal())
	if err != nil {
		return nil, Figure4Summary{}, err
	}
	var out []Figure
	for _, f := range figs {
		out = append(out, fromStatsFigure(f))
	}
	s := experiments.SummarizeFigure4(figs)
	return out, Figure4Summary{
		MedianImprovement: s.MedianImprovement,
		BestImprovement:   s.BestImprovement,
		BestApp:           strings.TrimPrefix(s.BestApp, "fig4-"),
		BestNodes:         s.BestNodes,
		BestKernel:        s.BestKernel,
	}, nil
}

// Figure4Summary condenses Figure 4 the way the paper's abstract does.
type Figure4Summary struct {
	MedianImprovement float64
	BestImprovement   float64
	BestApp           string
	BestNodes         int
	BestKernel        string
}

// ReproduceFigure5a regenerates the CCS-QCD comparison (% of Linux median).
func ReproduceFigure5a(cfg ExperimentConfig) (Figure, error) {
	f, err := experiments.Figure5a(cfg.internal())
	if err != nil {
		return Figure{}, err
	}
	return fromStatsFigure(f), nil
}

// ReproduceFigure5b regenerates the MiniFE scaling plot (Mflops).
func ReproduceFigure5b(cfg ExperimentConfig) (Figure, error) {
	f, err := experiments.Figure5b(cfg.internal())
	if err != nil {
		return Figure{}, err
	}
	return fromStatsFigure(f), nil
}

// ReproduceFigure6a regenerates the Lulesh 2.0 scaling plot (zones/s).
func ReproduceFigure6a(cfg ExperimentConfig) (Figure, error) {
	f, err := experiments.Figure6a(cfg.internal())
	if err != nil {
		return Figure{}, err
	}
	return fromStatsFigure(f), nil
}

// ReproduceFigure6b regenerates the LAMMPS scaling plot (timesteps/s).
func ReproduceFigure6b(cfg ExperimentConfig) (Figure, error) {
	f, err := experiments.Figure6b(cfg.internal())
	if err != nil {
		return Figure{}, err
	}
	return fromStatsFigure(f), nil
}

// ReproduceResilience runs the fault-injection experiment "one slow node
// poisons an allreduce at N nodes": MiniFE clean vs a single fixed-detour
// straggler (fault.Straggler with Extra set) at every node count on all
// three kernels, reported as percent slowdown. The curve rises with node
// count: strong scaling shrinks the healthy per-step time while the
// straggler's detour — absorbed by every rank at each allreduce — stays
// fixed.
func ReproduceResilience(cfg ExperimentConfig) (Figure, error) {
	f, err := experiments.Resilience(cfg.internal())
	if err != nil {
		return Figure{}, err
	}
	return fromStatsFigure(f), nil
}

// ReproduceSchedSweep runs the scheduler-policy sweep: every policy of the
// scheduling seam ("cfs", "rr", "coop", "gang", "tickless", "adaptive") on
// all three kernels across each application's node counts (up to 2,048),
// reporting the noise-gap percentage — the share of elapsed time lost to
// interference plus explicit scheduler charges. One figure per application
// (MiniFE: collective-bound; LAMMPS: halo-bound); series are named
// "<kernel>/<policy>". See docs/SCHED.md.
func ReproduceSchedSweep(cfg ExperimentConfig) ([]Figure, error) {
	figs, err := experiments.SchedSweep(cfg.internal())
	if err != nil {
		return nil, err
	}
	var out []Figure
	for _, f := range figs {
		out = append(out, fromStatsFigure(f))
	}
	return out, nil
}

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Config  string
	ZonesPS float64
	Percent float64
}

// ReproduceTableI regenerates Table I (Lulesh brk optimisations in DDR4)
// and returns the rows plus a rendered text table.
func ReproduceTableI(cfg ExperimentConfig) ([]TableIRow, string, error) {
	rows, tb, err := experiments.TableI(cfg.internal())
	if err != nil {
		return nil, "", err
	}
	var out []TableIRow
	for _, r := range rows {
		out = append(out, TableIRow{Config: r.Config, ZonesPS: r.ZonesPS, Percent: r.Percent})
	}
	return out, tb.Render(), nil
}

// ConformanceReport is one kernel's LTP-style result (section III-D).
type ConformanceReport struct {
	Kernel  string
	Total   int
	Passed  int
	Failed  int
	ByCause map[string]int
}

// Conformance runs the 3,328-case syscall conformance catalogue against
// all three kernels.
func Conformance() ([]ConformanceReport, string, error) {
	reports, tb, err := experiments.LTPResults(0)
	if err != nil {
		return nil, "", err
	}
	var out []ConformanceReport
	for _, rep := range reports {
		causes := map[string]int{}
		for k, v := range rep.ByCause {
			causes[string(k)] = v
		}
		out = append(out, ConformanceReport{
			Kernel:  rep.Kernel,
			Total:   rep.Total,
			Passed:  rep.Passed,
			Failed:  rep.Failed,
			ByCause: causes,
		})
	}
	return out, tb.Render(), nil
}

// EvaluateLTPCase runs a single named conformance case against a kernel
// type; used by tools that want per-case detail.
func EvaluateLTPCase(id string, k Kernel) (pass bool, reason string, err error) {
	for _, c := range ltp.Catalogue() {
		if c.ID != id {
			continue
		}
		kt, err := k.internalType()
		if err != nil {
			return false, "", err
		}
		kern, err := bootForType(kt)
		if err != nil {
			return false, "", err
		}
		r := ltp.Evaluate(kern, c)
		return r == "", string(r), nil
	}
	return false, "", fmt.Errorf("mklite: unknown LTP case %q", id)
}

// BrkTraceReport carries the section IV heap-trace statistics.
type BrkTraceReport struct {
	Kernel          string
	Queries         int64
	Grows           int64
	Shrinks         int64
	Calls           int64
	PeakBytes       int64
	CumulativeBytes int64
	HeapFaults      int64
}

// ReproduceBrkTrace replays the Lulesh heap trace on each kernel.
func ReproduceBrkTrace(cfg ExperimentConfig) ([]BrkTraceReport, error) {
	traces, err := experiments.BrkTrace(cfg.internal())
	if err != nil {
		return nil, err
	}
	var out []BrkTraceReport
	for _, tr := range traces {
		out = append(out, BrkTraceReport(tr))
	}
	return out, nil
}

// ProxyOptionReport carries a section IV proxy-option measurement.
type ProxyOptionReport struct {
	App          string
	Nodes        int
	BaselineFOM  float64
	OptimizedFOM float64
	GainPercent  float64
}

// ReproduceProxyOptions runs the --mpol-shm-premap/--disable-sched-yield
// comparison on AMG 2013 and MiniFE at 16 nodes.
func ReproduceProxyOptions(cfg ExperimentConfig) ([]ProxyOptionReport, error) {
	res, err := experiments.ProxyOptions(cfg.internal())
	if err != nil {
		return nil, err
	}
	var out []ProxyOptionReport
	for _, r := range res {
		out = append(out, ProxyOptionReport(r))
	}
	return out, nil
}

// AblationReport carries the design-space microbenchmarks.
type AblationReport struct {
	FWQNoisePercent      map[string]float64
	OffloadRoundTripSecs map[string]float64
	SchedulerMakespan    map[string]float64
	IKCQueueingTailSecs  float64
	Rendered             string
}

// ReproduceAblations runs the section II design-claim microbenchmarks.
func ReproduceAblations(cfg ExperimentConfig) (AblationReport, error) {
	a, err := experiments.Ablations(cfg.internal())
	if err != nil {
		return AblationReport{}, err
	}
	rep := AblationReport{
		FWQNoisePercent:      a.FWQNoisePercent,
		OffloadRoundTripSecs: map[string]float64{},
		SchedulerMakespan:    map[string]float64{},
		IKCQueueingTailSecs:  a.IKCQueueingTail.Seconds(),
		Rendered:             experiments.RenderAblations(a),
	}
	for k, v := range a.OffloadRoundTrip {
		rep.OffloadRoundTripSecs[k] = v.Seconds()
	}
	for k, v := range a.SchedulerMakespan {
		rep.SchedulerMakespan[k] = v.Seconds()
	}
	return rep, nil
}

// Relative converts an absolute three-kernel figure into the paper's
// normalised form: every non-Linux series expressed as a multiple of the
// Linux median at the same node count.
func Relative(f Figure) Figure {
	rel := experiments.RelativeFigure(toStatsFigure(&f))
	out := fromStatsFigure(rel)
	for i := range out.Series {
		out.Series[i].Unit = "x Linux"
	}
	return out
}

// QuadrantRow is one configuration of the clustering-mode comparison.
type QuadrantRow struct {
	Config  string
	FOM     float64
	Percent float64
}

// ReproduceQuadrant runs the section III-B clustering-mode comparison on
// CCS-QCD: Linux SNC-4 (DDR4-only) vs Linux quadrant (numactl -p MCDRAM
// with spill) vs the LWKs on SNC-4.
func ReproduceQuadrant(cfg ExperimentConfig) ([]QuadrantRow, error) {
	rows, err := experiments.QuadrantComparison(cfg.internal())
	if err != nil {
		return nil, err
	}
	var out []QuadrantRow
	for _, r := range rows {
		out = append(out, QuadrantRow(r))
	}
	return out, nil
}

// FacilityPolicyResult is one kernel-selection policy's facility outcome in
// the facility-scale comparison (see internal/fleet and docs/FLEET.md).
type FacilityPolicyResult struct {
	Policy         string
	Jobs           int
	JobsPerHour    float64
	UtilizationPct float64
	WaitP50Sec     float64
	WaitP99Sec     float64
	Backfilled     int
	Interfered     int
	KernelJobs     map[string]int
	// SLOPassed is this leg's watchdog verdict when ExperimentConfig.SLO
	// was set, nil otherwise.
	SLOPassed *bool
}

// DefaultFacilitySLO is the stock facility service-level objective spec for
// ExperimentConfig.SLO (see internal/experiments and docs/OBSERVABILITY.md).
const DefaultFacilitySLO = experiments.DefaultFacilitySLO

// ReproduceFacility runs the facility-scale kernel-policy comparison: the
// same seeded 1,000-job stream (150 under Quick) scheduled onto the same
// oversubscribed facility under each kernel-selection policy — fixed
// Linux/McKernel/mOS, the static profile heuristic, and MultiK-style
// per-app specialization — reporting throughput, utilization and queue-wait
// quantiles per policy, plus the rendered comparison table.
func ReproduceFacility(cfg ExperimentConfig) ([]FacilityPolicyResult, string, error) {
	cmp, err := experiments.Facility(cfg.internal())
	if err != nil {
		return nil, "", err
	}
	var out []FacilityPolicyResult
	for _, r := range cmp.Results {
		fr := FacilityPolicyResult{
			Policy:         r.Policy,
			Jobs:           r.Jobs,
			JobsPerHour:    r.JobsPerHour,
			UtilizationPct: r.UtilizationPct,
			WaitP50Sec:     r.WaitP50Sec,
			WaitP99Sec:     r.WaitP99Sec,
			Backfilled:     r.Backfilled,
			Interfered:     r.Interfered,
			KernelJobs:     r.KernelJobs,
		}
		if r.SLO != nil {
			passed := r.SLO.Passed
			fr.SLOPassed = &passed
		}
		out = append(out, fr)
	}
	return out, cmp.Rendered, nil
}

// AppNodeCounts returns the node counts an app is evaluated on.
func AppNodeCounts(appName string) ([]int, error) {
	s, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), s.NodeCounts...), nil
}

// CoreSpecRow is one configuration of the core-specialisation comparison
// (section III-A: "mOS using 64 or 66 cores beats Linux on 68 cores").
type CoreSpecRow struct {
	Config   string
	AppCores int
	FOM      float64
	Percent  float64
}

// ReproduceCoreSpecialization runs the core-specialisation comparison.
func ReproduceCoreSpecialization(cfg ExperimentConfig) ([]CoreSpecRow, error) {
	rows, err := experiments.CoreSpecialization(cfg.internal())
	if err != nil {
		return nil, err
	}
	var out []CoreSpecRow
	for _, r := range rows {
		out = append(out, CoreSpecRow(r))
	}
	return out, nil
}

// BrkTraceS30Report is the full-fidelity section IV replay result.
type BrkTraceS30Report struct {
	Kernel          string
	Calls           int64
	PeakBytes       int64
	CumulativeBytes int64
	HeapFaults      int64
	ZeroedBytes     int64
	KernelTimeSecs  float64
}

// ReproduceBrkTraceS30 replays the paper's exact 12,053-call Lulesh -s30
// brk trace (7,526 queries / 3,028 grows / 1,499 shrinks) call-for-call
// through each kernel's syscall layer.
func ReproduceBrkTraceS30() ([]BrkTraceS30Report, error) {
	res, err := experiments.BrkTraceS30()
	if err != nil {
		return nil, err
	}
	var out []BrkTraceS30Report
	for _, r := range res {
		out = append(out, BrkTraceS30Report(r))
	}
	return out, nil
}
