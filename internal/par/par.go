// Package par is mklite's sanctioned concurrency primitive: a bounded
// worker-pool fan-out over independent, index-addressed jobs.
//
// The simulation core promises that a run is a pure function of
// (model, seed); the mklint analyzers forbid bare goroutines in model code
// because Go's scheduler interleaving differs run to run. Parallelism is
// nevertheless the cheap speedup for the experiment harness — the paper's
// figures are sweeps of seed-isolated runs (8 apps x 3 kernels x node
// counts x repetitions) with no shared state at all. par confines the
// concurrency to exactly that shape:
//
//   - results are collected into a slice in job-index order, so the output
//     is independent of worker scheduling;
//   - every job must derive its own sim.RNG stream from the job seed
//     (sim.StreamSeed / RNG.Split) — sharing one RNG across jobs would both
//     race and make draw order scheduling-dependent. The mklint `parshare`
//     analyzer rejects closures that capture an outer RNG;
//   - a panic inside a job is captured and re-raised on the caller's
//     goroutine, annotated with the job index (the lowest panicking index,
//     deterministically, if several jobs fail);
//   - concurrency defaults to GOMAXPROCS and is overridable per call,
//     which the determinism tests use to compare widths 1, 2 and N.
//
// par is the one package in the module allowed to spawn goroutines
// (enforced by the mklint `nogoroutine` analyzer); everything else funnels
// through it.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// jobPanic carries a captured panic out of a worker.
type jobPanic struct {
	index int
	value any
	stack []byte
}

// Map runs fn(i) for every i in [0, n) on a pool of width goroutines and
// returns the results in index order. A width of zero (or less) selects
// GOMAXPROCS; width 1 degenerates to a plain sequential loop, which the
// equivalence tests use as the reference execution.
//
// fn must be self-contained per index: any randomness must come from a
// sim.RNG derived inside the closure from the job's own seed, never from a
// captured generator. fn may fail, and the first error — first by job
// index, not by completion time, so the result is deterministic — is
// returned after all jobs have run. Unlike errgroup there is no
// cancellation: jobs are independent by contract, and letting the
// remainder finish keeps the work performed identical run to run.
func Map[T any](width, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if width > n {
		width = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	if width == 1 {
		// Sequential reference path: no goroutines at all, so a panic
		// propagates natively and `go test -race` has nothing to watch.
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
		return out, firstErr(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards pan
	var pan *jobPanic
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runJob(i, fn, out, errs, &mu, &pan)
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(fmt.Sprintf("par: job %d panicked: %v\n%s", pan.index, pan.value, pan.stack))
	}
	return out, firstErr(errs)
}

// runJob executes one job, capturing a panic rather than letting it kill
// the worker (which would deadlock the pool and lose the job index).
func runJob[T any](i int, fn func(i int) (T, error), out []T, errs []error, mu *sync.Mutex, pan **jobPanic) {
	defer func() {
		if r := recover(); r != nil {
			mu.Lock()
			if *pan == nil || i < (*pan).index {
				*pan = &jobPanic{index: i, value: r, stack: debug.Stack()}
			}
			mu.Unlock()
		}
	}()
	out[i], errs[i] = fn(i)
}

// firstErr returns the lowest-index error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
