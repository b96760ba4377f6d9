package fleet

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"mklite/internal/cluster"
	"mklite/internal/metrics"
	"mklite/internal/obs"
	"mklite/internal/par"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// Scheduler is one facility run's mutable state: the virtual clock, the
// queue, the running set, the node allocator and the metrics being
// accumulated. Like *sim.RNG and *trace.Sink it is strictly per-run,
// single-goroutine state — the event loop is sequential, and the only
// concurrency is the internal/par fan-out over a launch batch, whose worker
// closures receive immutable launch specs and must never capture the
// Scheduler or its Allocator (mklint's parshare analyzer rejects the
// capture).
type Scheduler struct {
	cfg   Config
	alloc *Allocator

	clock   sim.Time
	queue   []*Job
	running []*runningJob

	// busyNodeNs accumulates occupied-nodes x virtual-time, the
	// utilization numerator (int64 node-nanoseconds).
	busyNodeNs int64
	lastEnd    sim.Time

	reg      *metrics.Registry
	counters *trace.Counters // fleet.* + merged per-job counters (cfg.Counters)

	// Observability backends (cfg.Observe) — passive, per-run, nil = off.
	// Like reg and counters they are scheduler-side state: the commit loop
	// feeds them after the par join, never the worker closures. The
	// job-counter view retains each job's own counter set and namespaces it
	// at result time — building the job/<id>/<name> map inline would put
	// ~10k map inserts' worth of allocation between launches, polluting the
	// simulator's caches (the same reason obs.Timeline defers its event
	// expansion).
	tl       *obs.Timeline
	dlog     *obs.DecisionLog
	jobSnaps []jobCounterSnap // per-job counters (Observe.JobCounters)
	// resScratch is the reservation-mirror buffer schedulePass fills when
	// the decision log is on — reused across passes (each backfill launch
	// copies its own evidence snapshot) so the mirror does not reallocate
	// on every clock event.
	resScratch []obs.Reservation

	backfilled int
	interfered int
	degraded   int
	kernelJobs map[string]int
	outcomes   []JobOutcome
	launched   int
}

// runningJob is one resident job: its launch decisions plus the completion
// time learned from the cluster run at launch.
type runningJob struct {
	job   *Job
	nodes []int
	start sim.Time
	end   sim.Time
}

// jobCounterSnap retains one job's own counter set (built inside the worker
// closure) until result time, when the job/<id>/<name> view is assembled.
type jobCounterSnap struct {
	id int
	c  *trace.Counters
}

// newScheduler builds the per-run state for cfg (already normalized).
func newScheduler(cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:        cfg,
		alloc:      NewAllocator(cfg.Nodes, cfg.Share),
		reg:        metrics.NewRegistry(),
		kernelJobs: map[string]int{},
	}
	if cfg.Counters {
		s.counters = trace.NewCounters()
	}
	if cfg.PerJob {
		s.outcomes = make([]JobOutcome, cfg.Jobs)
	}
	if o := cfg.Observe; o.Enabled() {
		s.tl = o.Timeline
		s.dlog = o.Decisions
	}
	return s
}

// run drives the stream to completion. The loop advances the virtual clock
// to the next event (an arrival or a completion), processes completions then
// arrivals at that instant, and launches every job the scheduling pass
// admits as one par batch — so jobs that start at the same virtual instant
// execute concurrently, joined in batch order.
func (s *Scheduler) run(stream []*Job) (*Result, error) {
	next := 0
	for next < len(stream) || len(s.queue) > 0 || len(s.running) > 0 {
		t := sim.Never
		if next < len(stream) {
			t = stream[next].Arrival
		}
		for _, r := range s.running {
			if r.end.Before(t) {
				t = r.end
			}
		}
		if t == sim.Never {
			// Queue non-empty with nothing running and nothing arriving:
			// the head must fit an empty facility (normalize caps
			// MaxJobNodes at Nodes), so this is unreachable.
			return nil, fmt.Errorf("fleet: scheduler stuck with %d queued jobs", len(s.queue))
		}

		s.busyNodeNs += int64(s.alloc.Occupied()) * int64(t.Sub(s.clock))
		s.clock = t

		s.completeAt(t)
		for next < len(stream) && stream[next].Arrival == t {
			s.queue = append(s.queue, stream[next])
			next++
		}
		if s.counters != nil {
			s.counters.Add("fleet.sched_passes", 1)
		}
		if batch := s.schedulePass(); len(batch) > 0 {
			if err := s.launch(batch); err != nil {
				return nil, err
			}
		}
		// One facility-lane sample per clock event, after the pass's
		// launches commit: the queue depth and node occupancy the event
		// left behind.
		s.tl.Sample(int64(t), len(s.queue), s.alloc.Occupied())
	}
	return s.result()
}

// completeAt frees every job ending at t, in job-ID order so the allocator's
// occupancy history — and with it every later co-tenancy draw — is a pure
// function of the schedule, not of the running list's internal order.
func (s *Scheduler) completeAt(t sim.Time) {
	var done []*runningJob
	kept := s.running[:0]
	for _, r := range s.running {
		if r.end == t {
			done = append(done, r)
		} else {
			kept = append(kept, r)
		}
	}
	s.running = kept
	slices.SortFunc(done, func(a, b *runningJob) int { return a.job.ID - b.job.ID })
	for _, r := range done {
		s.alloc.Free(r.nodes)
		s.tl.JobEnd(int64(t), r.job.ID)
		if s.counters != nil {
			s.counters.Add("fleet.jobs_completed", 1)
		}
	}
}

// runOut is one worker's return: the cluster result plus the job's own
// counters and event ring (created inside the closure, merged in batch
// order after the join).
type runOut struct {
	res      cluster.Result
	counters *trace.Counters
	events   *trace.Events
}

// launch executes one same-instant batch through internal/par and commits
// the results to the facility state. The worker closure captures only the
// batch slice and plain locals — never the Scheduler, nor the obs backends
// (each job builds its own counters and event ring; the commit loop merges
// them in batch order) — and each job's outcome depends only on its launch
// spec and its own seed, so the batch is byte-identical at any fan-out
// width.
func (s *Scheduler) launch(batch []*launch) error {
	workers := s.cfg.Workers
	counting := s.cfg.Counters || s.cfg.Observe.JobCountersOn()
	eventing := s.cfg.Observe.JobEventsOn()
	ringCap := s.cfg.Observe.JobEventRingCap()
	outs, err := par.Map(workers, len(batch), func(i int) (runOut, error) {
		l := batch[i]
		var c *trace.Counters
		if counting {
			c = trace.NewCounters()
		}
		var ev *trace.Events
		if eventing {
			ev = trace.NewEvents(ringCap)
		}
		res, err := cluster.Run(cluster.Job{
			App:    l.job.App,
			Kernel: l.kernel,
			Sched:  l.sched,
			Nodes:  l.job.Nodes,
			Seed:   l.job.Seed,
			Sink:   trace.NewSink(c, ev),
			Faults: l.plan,
		})
		if err != nil {
			return runOut{}, fmt.Errorf("fleet: job %d (%s on %s): %w",
				l.job.ID, l.job.App.Name, kernelName(l.kernel), err)
		}
		return runOut{res: res, counters: c, events: ev}, nil
	})
	if err != nil {
		return err
	}

	for i, l := range batch {
		out := outs[i]
		resident := out.res.Setup + out.res.Elapsed
		end := s.clock.Add(resident)
		s.running = append(s.running, &runningJob{job: l.job, nodes: l.nodes, start: s.clock, end: end})
		if end.After(s.lastEnd) {
			s.lastEnd = end
		}

		wait := s.clock.Sub(l.job.Arrival)
		s.reg.Observe("fleet.wait_ns", int64(wait))
		s.launched++
		s.kernelJobs[kernelName(l.kernel)]++
		if l.backfilled {
			s.backfilled++
		}
		if l.plan != nil {
			s.interfered++
		}
		if out.res.Degraded {
			s.degraded++
		}
		s.observeLaunch(l, out)
		if s.counters != nil {
			s.counters.Add("fleet.jobs_launched", 1)
			if l.backfilled {
				s.counters.Add("fleet.jobs_backfilled", 1)
			}
			if l.plan != nil {
				s.counters.Add("fleet.jobs_interfered", 1)
			}
			s.counters.Merge(out.counters)
		}
		if s.outcomes != nil {
			s.outcomes[l.job.ID] = JobOutcome{
				ID:         l.job.ID,
				App:        l.job.App.Name,
				Kernel:     kernelName(l.kernel),
				Sched:      string(l.sched),
				Nodes:      l.job.Nodes,
				Timesteps:  l.job.Timesteps,
				ArrivalSec: l.job.Arrival.Seconds(),
				StartSec:   s.clock.Seconds(),
				WaitSec:    wait.Seconds(),
				ElapsedSec: resident.Seconds(),
				FOM:        out.res.FOM,
				Backfilled: l.backfilled,
				Cotenancy:  l.cotenancy,
			}
		}
	}
	if s.counters != nil {
		s.counters.Add("fleet.launch_batches", 1)
		s.counters.Max("fleet.batch_max", int64(len(batch)))
	}
	return nil
}

// observeLaunch commits one launched job to the obs backends: the occupancy
// span on every allocated node, the job's own event track, the namespaced
// counter view, and the decision record. Runs in the sequential batch-order
// commit loop, so every artifact is a pure function of the schedule.
func (s *Scheduler) observeLaunch(l *launch, out runOut) {
	if s.tl != nil {
		name := fmt.Sprintf("job %d %s/%s", l.job.ID, l.job.App.Name, kernelName(l.kernel))
		s.tl.JobStart(int64(s.clock), l.job.ID, name, l.nodes, map[string]int64{
			"nodes":     int64(l.job.Nodes),
			"timesteps": int64(l.job.Timesteps),
			"cotenancy": int64(l.cotenancy),
		})
		if out.events != nil {
			s.tl.AddJobEvents(l.job.ID, int64(s.clock), out.events.Snapshot(), out.events.Dropped())
		}
	}
	if s.cfg.Observe.JobCountersOn() && out.counters != nil {
		s.jobSnaps = append(s.jobSnaps, jobCounterSnap{id: l.job.ID, c: out.counters})
	}
	if s.dlog != nil {
		d := obs.Decision{
			Job:       l.job.ID,
			TimeNs:    int64(s.clock),
			Kind:      obs.KindFIFO,
			Kernel:    kernelName(l.kernel),
			Nodes:     append([]int(nil), l.nodes...),
			Cotenancy: l.cotenancy,
		}
		if l.backfilled {
			d.Kind = obs.KindBackfill
			d.Backfill = l.evidence
		}
		s.dlog.Record(d)
	}
}

// result assembles the facility metrics once the stream has drained.
func (s *Scheduler) result() (*Result, error) {
	r := &Result{
		Policy:        s.cfg.Policy.Name(),
		FacilityNodes: s.cfg.Nodes,
		Share:         s.cfg.Share,
		Jobs:          s.launched,
		Backfilled:    s.backfilled,
		Interfered:    s.interfered,
		KernelJobs:    map[string]int{},
		PerJob:        s.outcomes,
	}
	maps.Copy(r.KernelJobs, s.kernelJobs)

	makespan := s.lastEnd
	r.MakespanSec = makespan.Seconds()
	if makespan > 0 {
		r.JobsPerHour = float64(s.launched) / (makespan.Seconds() / 3600)
		r.UtilizationPct = 100 * float64(s.busyNodeNs) /
			(float64(s.cfg.Nodes) * float64(makespan))
	}

	if h := s.reg.Histogram("fleet.wait_ns"); h != nil {
		r.WaitP50Sec = h.Percentile(50) / float64(sim.Second)
		r.WaitP99Sec = h.Percentile(99) / float64(sim.Second)
		r.WaitMaxSec = float64(h.Max()) / float64(sim.Second)
		r.WaitMeanSec = h.Mean() / float64(sim.Second)
	}

	if s.counters != nil {
		r.Counters = s.counters.Map()
	}
	r.DegradedJobs = s.degraded
	if len(s.jobSnaps) > 0 {
		total := 0
		for _, sn := range s.jobSnaps {
			total += sn.c.Len()
		}
		jc := make(map[string]int64, total)
		for _, sn := range s.jobSnaps {
			prefix := "job/" + strconv.Itoa(sn.id) + "/"
			sn.c.Each(func(name string, v int64) {
				jc[prefix+name] = v
			})
		}
		r.JobCounters = jc
	}
	if s.cfg.SLO != nil {
		rep, err := s.cfg.SLO.Eval(r.SLOValues())
		if err != nil {
			return nil, err
		}
		r.SLO = rep
	}
	return r, nil
}
