package noise

import (
	"mklite/internal/sim"
	"mklite/internal/stats"
	"mklite/internal/trace"
)

// FWQResult holds the samples of a fixed-work-quantum run: the virtual time
// each iteration of a constant-work loop took on a noisy core.
type FWQResult struct {
	Quantum sim.Duration
	Samples []float64 // iteration times in microseconds
}

// RunFWQ executes the Fixed Work Quanta benchmark: iters iterations of a
// loop whose pure compute time is quantum, on the given core under the
// given noise profile. Interference stretches individual iterations. A
// non-nil sink gets per-source detour attribution; the draws and samples
// are the same with or without one.
func RunFWQ(rng *sim.RNG, p *Profile, core int, quantum sim.Duration, iters int, sink *trace.Sink) FWQResult {
	res := FWQResult{Quantum: quantum, Samples: make([]float64, iters)}
	for i := 0; i < iters; i++ {
		detour := p.DetourIn(rng, core, quantum, sink)
		if detour > 0 {
			sink.CountKey(trace.KeyNoiseDetouredIters, 1)
			// The detour distribution only has entries for iterations
			// that were actually detoured — an undisturbed iteration
			// has no detour event, and padding the histogram with
			// zeros would hide the tail shape the paper plots.
			sink.Observe("fwq.detour_ns", int64(detour))
		}
		sink.CountKey(trace.KeyNoiseDetourNs, int64(detour))
		sink.Observe("fwq.iteration_ns", int64(quantum+detour))
		res.Samples[i] = (quantum + detour).Micros()
	}
	return res
}

// Summary returns the sample summary in microseconds.
func (r FWQResult) Summary() stats.Summary { return stats.Summarize(r.Samples) }

// NoisePercent is the classic FWQ metric: mean slowdown over the minimum
// observed iteration, in percent. A perfectly quiet system scores 0.
func (r FWQResult) NoisePercent() float64 {
	s := r.Summary()
	if s.Min == 0 {
		return 0
	}
	return (s.Mean - s.Min) / s.Min * 100
}

// MaxStretchPercent reports the worst single iteration relative to the
// minimum — the quantity collectives amplify.
func (r FWQResult) MaxStretchPercent() float64 {
	s := r.Summary()
	if s.Min == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Min * 100
}

// FTQResult holds fixed-time-quantum samples: work completed per fixed
// window, normalised to the ideal.
type FTQResult struct {
	Window  sim.Duration
	Samples []float64 // fraction of the window spent on application work
}

// RunFTQ executes the Fixed Time Quanta benchmark: for iters windows of the
// given length, measure the fraction of each window available to the
// application after interference.
func RunFTQ(rng *sim.RNG, p *Profile, core int, window sim.Duration, iters int) FTQResult {
	res := FTQResult{Window: window, Samples: make([]float64, iters)}
	for i := 0; i < iters; i++ {
		stolen := p.DetourIn(rng, core, window, nil)
		if stolen > window {
			stolen = window
		}
		res.Samples[i] = float64(window-stolen) / float64(window)
	}
	return res
}

// Summary returns the per-window utilisation summary (1.0 = noiseless).
func (r FTQResult) Summary() stats.Summary { return stats.Summarize(r.Samples) }
