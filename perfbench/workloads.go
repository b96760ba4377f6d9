package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"mklite"
	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/experiments"
	"mklite/internal/fleet"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/mckernel"
	"mklite/internal/mos"
	"mklite/internal/nodesim"
	"mklite/internal/obs"
	"mklite/internal/sim"
	"mklite/internal/stats"
	"mklite/internal/trace"
)

// workload is one named benchmark input. Its constructor is the set-up
// phase (everything derived from the seed before the first simulated call);
// run is the measured call.
type workload interface {
	// run makes the workload's calls into the simulator. tr is nil outside
	// the traced run; the calls are the same either way.
	run(tr *tracer) error
	// check validates the last run's output and returns its digest.
	check() (string, error)
	// count repeats the workload with mechanism counters on and returns
	// the merged counters.
	count() (map[string]int64, error)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"figure4", "facility", "offload-storm", "observed"}

// seedStream keys the simulator seed the benchmark derives from --seed, so
// every --seed value (0 included) maps to a well-mixed simulator seed.
const seedStream = 0xbe4c

func newWorkload(name string, seed uint64) (workload, error) {
	s := sim.StreamSeed(seed, seedStream)
	switch name {
	case "figure4":
		return newFigure4(s), nil
	case "facility":
		return newFacility(s)
	case "offload-storm":
		return newOffloadStorm(s), nil
	case "observed":
		return newObserved(s)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------------
// figure4: the paper's headline sweep.

// figure4Reps is the paper's repetition count per point.
const figure4Reps = 5

type figure4 struct {
	cfg  mklite.ExperimentConfig
	figs []mklite.Figure
	sum  mklite.Figure4Summary
}

func newFigure4(seed uint64) *figure4 {
	return &figure4{cfg: mklite.ExperimentConfig{Reps: figure4Reps, Seed: seed, Workers: 1}}
}

func (w *figure4) run(tr *tracer) error {
	tr.begin("mklite.ReproduceFigure4")
	defer tr.end()
	var err error
	w.figs, w.sum, err = mklite.ReproduceFigure4(w.cfg)
	return err
}

func (w *figure4) check() (string, error) {
	if err := checkFigure4(w.figs); err != nil {
		return "", err
	}
	out, err := json.Marshal(struct {
		Figures []mklite.Figure
		Summary mklite.Figure4Summary
	}{w.figs, w.sum})
	if err != nil {
		return "", err
	}
	return digestOf(out), nil
}

// checkFigure4 wants one figure per application, each with the three kernel
// series, and every median finite and positive.
func checkFigure4(figs []mklite.Figure) error {
	if want := len(apps.All()); len(figs) != want {
		return fmt.Errorf("figure4: %d figures, want %d", len(figs), want)
	}
	for _, f := range figs {
		if len(f.Series) != 3 {
			return fmt.Errorf("figure4: %s has %d series, want 3", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				return fmt.Errorf("figure4: %s/%s has no points", f.ID, s.Name)
			}
			for _, p := range s.Points {
				if math.IsNaN(p.Median) || math.IsInf(p.Median, 0) || p.Median <= 0 {
					return fmt.Errorf("figure4: %s/%s at %d nodes: median %v", f.ID, s.Name, p.Nodes, p.Median)
				}
			}
		}
	}
	return nil
}

func (w *figure4) count() (map[string]int64, error) {
	cfg := w.cfg
	cfg.Counters = true
	figs, _, err := mklite.ReproduceFigure4(cfg)
	if err != nil {
		return nil, err
	}
	c := trace.NewCounters()
	for _, f := range figs {
		c.MergeMap(f.Counters)
	}
	return c.Map(), nil
}

// exactMaxRanks mirrors the rank count up to which noise.MaxDetourRank
// samples every rank; larger jobs take the order-statistic path.
const exactMaxRanks = 1024

// replay re-runs the figure's cells one cluster.Run at a time, with a span
// around each, and checks that the per-cell medians reproduce the figure.
func (w *figure4) replay(tr *tracer) error {
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	for fi, app := range apps.All() {
		for ki, kt := range kts {
			series := w.figs[fi].Series[ki]
			for ni, n := range app.NodeCounts {
				path := "exact"
				if n*app.RanksPerNode > exactMaxRanks {
					path = "orderstat"
				}
				foms := make([]float64, w.cfg.Reps)
				for rep := range foms {
					job := cluster.Job{App: app, Kernel: kt, Nodes: n, Seed: sim.StreamSeed(w.cfg.Seed, uint64(rep))}
					tr.begin("cluster.Run/" + path)
					res, err := cluster.Run(job)
					tr.end()
					if err != nil {
						return err
					}
					foms[rep] = res.FOM
				}
				if got, want := stats.Median(foms), series.Points[ni].Median; got != want {
					return fmt.Errorf("figure4 replay: %s on %s at %d nodes: median %v, figure has %v",
						app.Name, series.Name, n, got, want)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// facility: the five-policy facility comparison over one job stream.

// lwkAwareMinGain is how much more throughput than fixed Linux the
// LWK-aware policies must deliver (the facility-scale form of the paper's
// result).
const lwkAwareMinGain = 1.05

type facility struct {
	base fleet.Config
	jobs int
	legs []*fleet.Result
}

// facilityJobs is the length of the benchmark's job stream: three times the
// quick comparison's 150 jobs, so that the work in one stream (and with it
// the allocation count) varies less from seed to seed.
const facilityJobs = 450

// facilityConfig is the comparison's quick-scale facility (64 nodes, jobs
// of at most 32 nodes) fed facilityJobs jobs, with the stock SLO watchdog
// on every leg.
func facilityConfig(seed uint64) (fleet.Config, int, error) {
	fc := experiments.FacilityConfig(experiments.Config{Seed: seed, Quick: true, Workers: 1})
	fc.Jobs = facilityJobs
	slo, err := obs.ParseSLO(experiments.DefaultFacilitySLO)
	if err != nil {
		return fc, 0, err
	}
	fc.SLO = slo
	stream, err := fleet.GenerateStream(fc)
	if err != nil {
		return fc, 0, err
	}
	return fc, len(stream), nil
}

func newFacility(seed uint64) (*facility, error) {
	fc, jobs, err := facilityConfig(seed)
	return &facility{base: fc, jobs: jobs}, err
}

func (w *facility) run(tr *tracer) error {
	tr.begin("facility")
	defer tr.end()
	w.legs = w.legs[:0]
	for _, name := range experiments.FacilityPolicies() {
		res, err := w.leg(tr, w.base, name)
		if err != nil {
			return err
		}
		w.legs = append(w.legs, res)
	}
	return nil
}

// leg resolves one policy (calibrating specialize) and runs it.
func (w *facility) leg(tr *tracer, fc fleet.Config, name string) (*fleet.Result, error) {
	if name == "specialize" {
		tr.begin("fleet.calibrate")
	}
	pol, err := fleet.ParsePolicy(name, fc.Seed, fc.Workers, fc.Interference)
	if name == "specialize" {
		tr.end()
	}
	if err != nil {
		return nil, err
	}
	fc.Policy = pol
	tr.begin("fleet.Run/" + name)
	defer tr.end()
	return fleet.Run(fc)
}

func (w *facility) check() (string, error) {
	if err := checkFacility(w.legs, w.jobs); err != nil {
		return "", err
	}
	out, err := json.Marshal(w.legs)
	if err != nil {
		return "", err
	}
	return digestOf(out), nil
}

// checkFacility wants the five legs in policy order, every job completed,
// the stock SLO passed on every leg, and the LWK-aware policies ahead of
// fixed Linux by lwkAwareMinGain.
func checkFacility(legs []*fleet.Result, jobs int) error {
	names := experiments.FacilityPolicies()
	if len(legs) != len(names) {
		return fmt.Errorf("facility: %d legs, want %d", len(legs), len(names))
	}
	byName := map[string]*fleet.Result{}
	for i, r := range legs {
		if r.Policy != names[i] {
			return fmt.Errorf("facility: leg %d is %q, want %q", i, r.Policy, names[i])
		}
		if err := checkLeg(r, jobs); err != nil {
			return err
		}
		byName[r.Policy] = r
	}
	linux := byName["fixed-linux"].JobsPerHour
	for _, p := range []string{"heuristic", "specialize"} {
		if got := byName[p].JobsPerHour; !(got >= lwkAwareMinGain*linux) {
			return fmt.Errorf("facility: %s %.1f jobs/h is below %.2fx fixed-linux %.1f", p, got, lwkAwareMinGain, linux)
		}
	}
	return nil
}

// checkLeg wants every job of the stream completed and the SLO passed.
func checkLeg(r *fleet.Result, jobs int) error {
	if r.Jobs != jobs {
		return fmt.Errorf("facility %s: %d of %d jobs completed", r.Policy, r.Jobs, jobs)
	}
	if r.SLO == nil || !r.SLO.Passed {
		return fmt.Errorf("facility %s: SLO %q not passed", r.Policy, experiments.DefaultFacilitySLO)
	}
	return nil
}

func (w *facility) count() (map[string]int64, error) {
	c := trace.NewCounters()
	fc := w.base
	fc.Counters = true
	for _, name := range experiments.FacilityPolicies() {
		res, err := w.leg(nil, fc, name)
		if err != nil {
			return nil, err
		}
		c.MergeMap(res.Counters)
	}
	return c.Map(), nil
}

func (w *facility) backfilled() int64 {
	var n int64
	for _, r := range w.legs {
		n += int64(r.Backfilled)
	}
	return n
}

// ---------------------------------------------------------------------------
// offload-storm: the discrete-event node model under a syscall storm.

// stormConfig is the examples/offloadstorm node (64 ranks, 8 device
// syscalls per step, a barrier every step) run for stormSteps steps.
func stormConfig(seed uint64) mklite.NodeSimConfig {
	return mklite.NodeSimConfig{
		Ranks:              64,
		Steps:              stormSteps,
		ComputePerStepSecs: 2e-3,
		SyscallsPerStep:    8,
		SyscallServiceSecs: 3e-6,
		Barrier:            true,
		Seed:               seed,
	}
}

const stormSteps = 150

type offloadStorm struct {
	cfg mklite.NodeSimConfig
	res []mklite.NodeSimResult
}

func newOffloadStorm(seed uint64) *offloadStorm { return &offloadStorm{cfg: stormConfig(seed)} }

func (w *offloadStorm) run(tr *tracer) error {
	tr.begin("offload-storm")
	defer tr.end()
	w.res = w.res[:0]
	for _, k := range mklite.Kernels() {
		tr.begin("mklite.SimulateNode/" + string(k))
		res, err := mklite.SimulateNode(k, w.cfg)
		tr.end()
		if err != nil {
			return err
		}
		w.res = append(w.res, res)
	}
	return nil
}

func (w *offloadStorm) check() (string, error) {
	if err := checkOffloadStorm(w.res, w.cfg); err != nil {
		return "", err
	}
	out, err := json.Marshal(w.res)
	if err != nil {
		return "", err
	}
	return digestOf(out), nil
}

// checkOffloadStorm wants one result per kernel, a positive finite elapsed
// time, and every offloaded call serviced on the two LWKs.
func checkOffloadStorm(res []mklite.NodeSimResult, cfg mklite.NodeSimConfig) error {
	ks := mklite.Kernels()
	if len(res) != len(ks) {
		return fmt.Errorf("offload-storm: %d results, want %d", len(res), len(ks))
	}
	want := cfg.Ranks * cfg.Steps * cfg.SyscallsPerStep
	for i, r := range res {
		if !(r.ElapsedSeconds > 0) || math.IsInf(r.ElapsedSeconds, 0) {
			return fmt.Errorf("offload-storm: %s elapsed %v", r.Kernel, r.ElapsedSeconds)
		}
		if ks[i] != mklite.Linux && r.OffloadsServiced != want {
			return fmt.Errorf("offload-storm: %s serviced %d offloads, want %d", r.Kernel, r.OffloadsServiced, want)
		}
	}
	return nil
}

// count runs the same node simulations through nodesim with a counting
// sink attached (mklite.SimulateNode exposes no counters).
func (w *offloadStorm) count() (map[string]int64, error) {
	c := trace.NewCounters()
	for _, k := range mklite.Kernels() {
		kern, err := bootDefault(k)
		if err != nil {
			return nil, err
		}
		_, err = nodesim.Run(nodesim.Config{
			Kern:            kern,
			Ranks:           w.cfg.Ranks,
			Steps:           w.cfg.Steps,
			ComputePerStep:  sim.DurationOf(w.cfg.ComputePerStepSecs),
			SyscallsPerStep: w.cfg.SyscallsPerStep,
			SyscallService:  sim.DurationOf(w.cfg.SyscallServiceSecs),
			Barrier:         w.cfg.Barrier,
			Seed:            w.cfg.Seed,
			Sink:            trace.NewSink(c, nil),
		})
		if err != nil {
			return nil, err
		}
	}
	return c.Map(), nil
}

// bootDefault boots a default-configured kernel on a fresh KNL node, as
// mklite.SimulateNode does.
func bootDefault(k mklite.Kernel) (kernel.Kernel, error) {
	node := hw.KNL7250SNC4()
	switch k {
	case mklite.Linux:
		return linuxos.Boot(node, linuxos.DefaultConfig())
	case mklite.McKernel:
		kern, _, err := mckernel.Deploy(node, mckernel.DefaultOptions())
		return kern, err
	case mklite.MOS:
		return mos.Boot(node, mos.DefaultConfig())
	}
	return nil, fmt.Errorf("unknown kernel %q", k)
}

// ---------------------------------------------------------------------------
// observed: one facility leg with every facility observer attached.

type observed struct {
	base     fleet.Config // the heuristic leg of the facility comparison
	jobs     int
	res      *fleet.Result
	timeline []byte
	dlog     []byte
}

func newObserved(seed uint64) (*observed, error) {
	fc, jobs, err := facilityConfig(seed)
	fc.Policy = fleet.Heuristic()
	return &observed{base: fc, jobs: jobs}, err
}

// observers attaches the occupancy timeline, the decision log, per-job
// counters and per-job event tracks. They are per-run state, so each run
// gets fresh ones.
func (w *observed) observers() *obs.Options {
	return &obs.Options{
		Timeline:    obs.NewTimeline(w.base.Nodes, max(w.base.Share, 1), 0),
		Decisions:   obs.NewDecisionLog(),
		JobCounters: true,
		JobEvents:   true,
	}
}

func (w *observed) run(tr *tracer) error {
	tr.begin("observed")
	defer tr.end()
	var err error
	w.res, w.timeline, w.dlog, err = w.observedLeg(tr, w.base)
	return err
}

func (w *observed) observedLeg(tr *tracer, fc fleet.Config) (*fleet.Result, []byte, []byte, error) {
	o := w.observers()
	fc.Observe = o
	tr.begin("fleet.Run/heuristic")
	res, err := fleet.Run(fc)
	tr.end()
	if err != nil {
		return nil, nil, nil, err
	}
	tr.begin("obs.Timeline.JSON")
	tl := o.Timeline.JSON()
	tr.end()
	tr.begin("obs.DecisionLog.JSON")
	dl, err := o.Decisions.JSON()
	tr.end()
	return res, tl, dl, err
}

// cleanLeg runs the same leg with no observer attached.
func (w *observed) cleanLeg() (*fleet.Result, error) { return fleet.Run(w.base) }

func (w *observed) check() (string, error) {
	clean, err := w.cleanLeg()
	if err != nil {
		return "", err
	}
	if err := checkObserved(w.res, clean, w.timeline, w.dlog, w.jobs); err != nil {
		return "", err
	}
	out, err := json.Marshal(w.res)
	if err != nil {
		return "", err
	}
	return digestOf(out, w.timeline, w.dlog), nil
}

// checkObserved wants a valid timeline, a decision log that round-trips
// through obs.ReadDecisions, and a simulated result byte-identical to the
// clean leg's once the observer-only per-job counter view is set aside.
func checkObserved(res, clean *fleet.Result, timeline, dlog []byte, jobs int) error {
	if err := checkLeg(res, jobs); err != nil {
		return err
	}
	if err := trace.Validate(timeline); err != nil {
		return fmt.Errorf("observed: timeline: %w", err)
	}
	ds, err := obs.ReadDecisions(dlog)
	if err != nil {
		return fmt.Errorf("observed: decisions: %w", err)
	}
	if len(ds) != res.Jobs {
		return fmt.Errorf("observed: %d decisions for %d jobs", len(ds), res.Jobs)
	}
	relog := obs.NewDecisionLog()
	for _, d := range ds {
		relog.Record(d)
	}
	again, err := relog.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(again, dlog) {
		return errors.New("observed: decision log does not round-trip through obs.ReadDecisions")
	}
	if len(res.JobCounters) == 0 {
		return errors.New("observed: per-job counters missing")
	}
	sim := *res
	sim.JobCounters = nil
	a, err := json.Marshal(&sim)
	if err != nil {
		return err
	}
	b, err := json.Marshal(clean)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("observed: simulated result differs from the clean leg")
	}
	return nil
}

func (w *observed) count() (map[string]int64, error) {
	fc := w.base
	fc.Counters = true
	res, _, _, err := w.observedLeg(nil, fc)
	if err != nil {
		return nil, err
	}
	return res.Counters, nil
}
