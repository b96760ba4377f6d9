package sim

import "testing"

// The steady state of the event engine allocates nothing: process wakes
// are value entries in the calendar queue, and Signal and Mailbox keep
// their storage between rounds. Each budget below runs one round of a
// process protocol per AllocsPerRun call, after the warm-up call has grown
// every slice it needs.

// assertNoAllocs runs the engine one period per call and fails if any
// call allocates. It drains e afterwards so no process goroutine outlives
// the test.
func assertNoAllocs(t *testing.T, e *Engine, period Duration) {
	t.Helper()
	if raceEnabled {
		t.Skip("budgets are measured without -race instrumentation")
	}
	defer e.Drain()
	e.RunUntil(e.Now()) // start every process
	got := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now().Add(period)) })
	if got != 0 {
		t.Fatalf("%v allocations per round, budget 0", got)
	}
}

func TestSleepAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	assertNoAllocs(t, e, 10)
}

func TestSignalRoundTripAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	for i := 0; i < 4; i++ {
		e.Spawn("waiter", func(p *Proc) {
			for {
				p.WaitSignal(&sig)
			}
		})
	}
	e.Spawn("firer", func(p *Proc) {
		for {
			p.Sleep(10)
			sig.Fire(e)
		}
	})
	assertNoAllocs(t, e, 10)
}

func TestMailboxRoundTripAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	var m Mailbox[int]
	got := 0
	e.Spawn("receiver", func(p *Proc) {
		for {
			got += m.Recv(p)
		}
	})
	e.Spawn("sender", func(p *Proc) {
		for {
			p.Sleep(10)
			m.Send(e, 1)
			m.Send(e, 2)
		}
	})
	assertNoAllocs(t, e, 10)
	if got == 0 {
		t.Fatal("receiver got nothing")
	}
}

func TestParkUnparkAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	var parked *Proc
	e.Spawn("parker", func(p *Proc) {
		for {
			parked = p
			p.Park()
		}
	})
	e.Spawn("unparker", func(p *Proc) {
		for {
			p.Sleep(10)
			parked.Unpark()
		}
	})
	assertNoAllocs(t, e, 10)
}

func TestUnparkOfUnparkedProcPanics(t *testing.T) {
	e := NewEngine(1)
	sleeper := e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	e.RunUntil(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpark of a sleeping process did not panic")
		}
		e.Drain()
	}()
	sleeper.Unpark()
}

// pushBurst pushes one 64-entry same-timestamp burst at t, mixing process
// wakes and closure events, and pops it all again. The pushes grow the
// calendar (8 -> 16 -> 32 buckets) and the pops shrink it back.
func pushBurst(q *calQueue, procs []Proc, fn func(), t Time, seq *uint64) bool {
	for r := range procs {
		e := calEntry{at: t, seq: *seq}
		if r%8 == 0 {
			e.fn = fn
		} else {
			e.proc = &procs[r]
		}
		q.push(e)
		*seq++
	}
	for range procs {
		if _, ok := q.pop(); !ok {
			return false
		}
	}
	return true
}

// TestCalQueueBurstAllocatesNothing: once the calendar has seen a burst,
// later bursts regrow it into the bucket array and bucket slices the
// earlier resizes kept.
func TestCalQueueBurstAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("budgets are measured without -race instrumentation")
	}
	var q calQueue
	q.init()
	procs := make([]Proc, 64)
	fn := func() {}
	var seq uint64
	at := Time(0)
	got := testing.AllocsPerRun(100, func() {
		at += 1000
		if !pushBurst(&q, procs, fn, at, &seq) {
			t.Fatal("queue ran dry")
		}
	})
	if got != 0 {
		t.Fatalf("%v allocations per burst, budget 0", got)
	}
}

// BenchmarkCalQueueBurst pushes and pops bursts of 64 same-timestamp
// entries (one barrier release of the 64-rank node model) with process
// wakes and closure events mixed, so each burst grows the calendar and the
// drain shrinks it again.
func BenchmarkCalQueueBurst(b *testing.B) {
	var q calQueue
	q.init()
	procs := make([]Proc, 64)
	fn := func() {}
	var seq uint64
	at := Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at += 1000
		if !pushBurst(&q, procs, fn, at, &seq) {
			b.Fatal("queue ran dry")
		}
	}
}
