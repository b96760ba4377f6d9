package experiments

import (
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/par"
	"mklite/internal/sim"
	"mklite/internal/stats"
)

// ResilienceStragglerDetour is the resilience experiment's injected fault:
// one node losing a fixed 2 ms to a local affliction every timestep — a
// failing DIMM retraining, a runaway daemon, a thermally throttled socket.
// The detour is additive (not a slowdown factor) on purpose: as strong
// scaling shrinks the healthy per-step time, a fixed detour occupies a
// growing fraction of every step, which is exactly the amplification the
// experiment measures.
const ResilienceStragglerDetour = 2 * sim.Millisecond

// ResiliencePlan is the canonical single-straggler plan of the resilience
// experiment: node 0 absorbs ResilienceStragglerDetour extra per timestep
// for the whole run.
func ResiliencePlan() *fault.Plan {
	return &fault.Plan{Stragglers: []fault.Straggler{{Node: 0, Extra: ResilienceStragglerDetour}}}
}

// Resilience reproduces "one slow node poisons an allreduce at N nodes":
// MiniFE — an allreduce-per-timestep strong-scaling code — runs clean and
// with ResiliencePlan at every node count, on all three kernels. Each series
// point is the straggler's poisoning in percent: the median clean FOM over
// the median straggled FOM, minus one. Because MiniFE allreduces every
// step, the whole job absorbs the straggler's detour at every
// synchronisation, and because the healthy per-step time shrinks as the job
// scales out, the same 2 ms straggler costs a growing share of every step:
// the curve rises with node count.
func Resilience(cfg Config) (*stats.Figure, error) {
	cfg = cfg.normalize()
	app := apps.MiniFE()
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	nodes := cfg.nodeCounts(app)
	plan := ResiliencePlan()

	type cell struct{ slowdownPct float64 }
	cells, err := par.Map(cfg.Workers, len(kts)*len(nodes), func(i int) (cell, error) {
		kt, n := kts[i/len(nodes)], nodes[i%len(nodes)]
		clean, err := measure(cfg, cluster.Job{App: app, Kernel: kt, Nodes: n})
		if err != nil {
			return cell{}, fmt.Errorf("experiments: resilience clean %v at %d nodes: %w", kt, n, err)
		}
		slow, err := measure(cfg, cluster.Job{App: app, Kernel: kt, Nodes: n, Faults: plan})
		if err != nil {
			return cell{}, fmt.Errorf("experiments: resilience straggled %v at %d nodes: %w", kt, n, err)
		}
		if slow.Median <= 0 {
			return cell{}, fmt.Errorf("experiments: resilience %v at %d nodes: non-positive straggled FOM", kt, n)
		}
		return cell{slowdownPct: (clean.Median/slow.Median - 1) * 100}, nil
	})
	if err != nil {
		return nil, err
	}

	fig := &stats.Figure{
		ID:    "resilience",
		Title: fmt.Sprintf("MiniFE: one straggler (+%v/step) poisons the allreduce — slowdown vs node count", ResilienceStragglerDetour),
	}
	for ki, kt := range kts {
		s := &stats.Series{Name: kt.String(), Unit: "% slowdown"}
		for ni, n := range nodes {
			v := cells[ki*len(nodes)+ni].slowdownPct
			s.Add(n, stats.Summary{Median: v, Min: v, Max: v, Mean: v})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
