// Fixture for the parshare fleet rule: a fleet.Scheduler or fleet.Allocator
// is one facility run's mutable queue/occupancy state, so capturing either
// across a par.Map closure makes node placement — and every co-tenancy
// interference plan derived from it — depend on worker scheduling and must
// be flagged; passing immutable launch specs into the closure must not.
package parshare

import (
	"mklite/internal/fleet"
	"mklite/internal/par"
)

func badSharedAllocator() ([]bool, error) {
	alloc := fleet.NewAllocator(64, 1)
	return par.Map(0, 8, func(i int) (bool, error) {
		return alloc.Fits(4), nil // want `par closure captures \*fleet\.Allocator "alloc" from an enclosing scope`
	})
}

func badSharedScheduler() ([]int, error) {
	var sched fleet.Scheduler
	_ = sched
	return par.Map(0, 4, func(i int) (int, error) {
		s := &sched // want `par closure captures fleet\.Scheduler "sched" from an enclosing scope`
		_ = s
		return i, nil
	})
}

func goodImmutableLaunchSpecs(jobs []*fleet.Job) ([]int, error) {
	// Placement decided sequentially before the fan-out; the closure sees
	// only the immutable per-job specs.
	return par.Map(0, len(jobs), func(i int) (int, error) {
		return jobs[i].Nodes * jobs[i].Timesteps, nil
	})
}

func goodAllocatorOutsideClosure() bool {
	alloc := fleet.NewAllocator(8, 2)
	return alloc.Fits(3)
}
