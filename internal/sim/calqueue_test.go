package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEntry is the reference model's copy of one queued entry, so the
// heap's bookkeeping cannot alias the calendar queue's.
type refEntry struct {
	at   Time
	seq  uint64
	proc *Proc
}

// refHeap is the binary heap the calendar queue replaced, kept here as the
// reference model for the equivalence property: a container/heap ordered by
// (at, seq), exactly as internal/sim/engine.go had it before the calendar
// queue landed.
type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// TestCalQueueMatchesBinaryHeap drives the calendar queue and the retired
// binary heap through identical random workloads — process wakes and
// closure events mixed, pushes at random future times, same-timestamp
// bursts, interleaved pops — and requires identical pop sequences: the
// same (at, seq), the same kind of entry and the same process. Pops respect the engine invariant that nothing
// is ever scheduled before the last popped timestamp.
func TestCalQueueMatchesBinaryHeap(t *testing.T) {
	procs := []*Proc{{name: "a"}, {name: "b"}, {name: "c"}}
	for _, seed := range []uint64{1, 2, 3, 42, 0xdead} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			var q calQueue
			q.init()
			var ref refHeap
			noop := func() {}
			var seq uint64
			now := Time(0)

			push := func(at Time) {
				e := calEntry{at: at, seq: seq}
				r := &refEntry{at: at, seq: seq}
				seq++
				if rng.Intn(2) == 0 {
					e.proc = procs[rng.Intn(len(procs))]
					r.proc = e.proc
				} else {
					e.fn = noop
				}
				q.push(e)
				heap.Push(&ref, r)
			}
			popBoth := func() {
				got, ok := q.pop()
				var want *refEntry
				if ref.Len() > 0 {
					want = heap.Pop(&ref).(*refEntry)
				}
				switch {
				case !ok && want == nil:
					return
				case !ok || want == nil:
					t.Fatalf("pop mismatch: calqueue ok=%v heap=%v", ok, want)
				case got.at != want.at || got.seq != want.seq:
					t.Fatalf("pop order diverged: calqueue (at=%d seq=%d) vs heap (at=%d seq=%d)",
						got.at, got.seq, want.at, want.seq)
				case got.proc != want.proc || (got.proc == nil) == (got.fn == nil):
					t.Fatalf("entry kind diverged at seq %d: proc %v, want proc %v",
						got.seq, got.proc, want.proc)
				}
				now = got.at
			}

			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(100); {
				case r < 45: // push at a random future time
					push(now + Time(rng.Intn(5000)))
				case r < 60: // same-timestamp burst
					at := now + Time(rng.Intn(1000))
					for i := 0; i < 1+rng.Intn(8); i++ {
						push(at)
					}
				case r < 70: // far-future outlier (stresses bucket wrap)
					push(now + Time(1+rng.Int63n(int64(50*Second))))
				default:
					popBoth()
				}
			}
			// Drain: the tails must match too.
			for q.size > 0 || ref.Len() > 0 {
				popBoth()
			}
		})
	}
}

// TestCalQueueFIFOBurst pops a large same-timestamp burst in strict
// insertion order — the tie-break contract the engine's determinism rests
// on, exercised through bucket resizes.
func TestCalQueueFIFOBurst(t *testing.T) {
	var q calQueue
	q.init()
	const n = 4096
	for i := 0; i < n; i++ {
		q.push(calEntry{at: 77, seq: uint64(i)})
	}
	for i := 0; i < n; i++ {
		e, ok := q.pop()
		if !ok || e.seq != uint64(i) {
			t.Fatalf("burst pop %d returned seq %d (ok %v)", i, e.seq, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue not empty after draining burst")
	}
}

// TestEngineDrainKillOrderDeterministic spawns processes with teardown
// side effects and requires Drain to unwind them in spawn order — the old
// Drain ranged over the procs map, so the order (and any trace output of
// the deferred cleanup) varied between runs.
func TestEngineDrainKillOrderDeterministic(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		e := NewEngine(1)
		const n = 16
		var unwound []int
		for i := 0; i < n; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				defer func() { unwound = append(unwound, i) }()
				p.Sleep(1000 * Duration(Second))
			})
		}
		e.RunUntil(10) // all processes started and blocked in Sleep
		e.Drain()
		if len(unwound) != n {
			t.Fatalf("iter %d: %d of %d processes unwound during Drain", iter, len(unwound), n)
		}
		for i, v := range unwound {
			if v != i {
				t.Fatalf("iter %d: kill order not spawn order: %v", iter, unwound)
			}
		}
	}
}

// TestEngineDrainReleasesEventReferences checks that Drain really empties
// the queue's storage: a post-Drain engine schedules and runs fresh events
// with no leftovers from before.
func TestEngineDrainReleasesEventReferences(t *testing.T) {
	e := NewEngine(1)
	stale := 0
	for i := 0; i < 100; i++ {
		e.After(Duration(i), func() { stale++ })
	}
	e.Drain()
	if e.events.size != 0 {
		t.Fatalf("%d entries queued after Drain", e.events.size)
	}
	ran := false
	e.After(5, func() { ran = true })
	e.Run()
	if stale != 0 {
		t.Fatalf("%d drained events ran", stale)
	}
	if !ran {
		t.Fatal("post-Drain event did not run")
	}
}
