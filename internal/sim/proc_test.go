package sim

import "testing"

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	e.Run()
	if woke != 100 {
		t.Fatalf("woke at %v, want 100", woke)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Spawn("s", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20) // wakes at 30
		order = append(order, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
	})
	e.Run()
	want := []string{"a10", "b20", "a30"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcDone(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("d", func(p *Proc) { p.Sleep(5) })
	if p.Done() {
		t.Fatal("Done before run")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("not Done after run")
	}
}

func TestProcKill(t *testing.T) {
	e := NewEngine(1)
	reached := false
	p := e.Spawn("victim", func(p *Proc) {
		p.Sleep(100)
		reached = true
	})
	e.At(50, func() { p.Kill() })
	e.Run()
	if reached {
		t.Fatal("killed process ran past its sleep")
	}
	if !p.Done() {
		t.Fatal("killed process not Done")
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	woke := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			p.WaitSignal(&sig)
			woke++
		})
	}
	e.At(10, func() { sig.Fire(e) })
	e.Run()
	if woke != 4 {
		t.Fatalf("%d waiters woke, want 4", woke)
	}
}

func TestSignalWaitingCount(t *testing.T) {
	e := NewEngine(1)
	var sig Signal
	e.Spawn("w", func(p *Proc) { p.WaitSignal(&sig) })
	e.At(5, func() {
		if len(sig.waiters) != 1 {
			t.Errorf("%d waiters, want 1", len(sig.waiters))
		}
		sig.Fire(e)
	})
	e.Run()
	if len(sig.waiters) != 0 {
		t.Fatalf("%d waiters after fire", len(sig.waiters))
	}
}

func TestMailboxDeliversFIFO(t *testing.T) {
	e := NewEngine(1)
	var m Mailbox[int]
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Recv(p))
		}
	})
	e.At(10, func() { m.Send(e, 1) })
	e.At(20, func() { m.Send(e, 2) })
	e.At(30, func() { m.Send(e, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxBuffersBeforeReceiver(t *testing.T) {
	e := NewEngine(1)
	var m Mailbox[int]
	m.Send(e, 7)
	m.Send(e, 8)
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	var got []int
	e.Spawn("late", func(p *Proc) {
		got = append(got, m.Recv(p))
		got = append(got, m.Recv(p))
	})
	e.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("got %v", got)
	}
}

func TestProcPingPong(t *testing.T) {
	// Two processes exchanging messages through mailboxes: a rendezvous
	// pattern used by the IKC model.
	e := NewEngine(1)
	var req, resp Mailbox[int]
	e.Spawn("server", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v := req.Recv(p)
			p.Sleep(5) // service time
			resp.Send(e, v*10)
		}
	})
	var results []int
	var times []Time
	e.Spawn("client", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			req.Send(e, i)
			results = append(results, resp.Recv(p))
			times = append(times, p.Now())
		}
	})
	e.Run()
	if len(results) != 3 || results[0] != 10 || results[1] != 20 || results[2] != 30 {
		t.Fatalf("results %v", results)
	}
	// Each round trip costs the 5-unit service time.
	if times[2] != 15 {
		t.Fatalf("third response at %v, want 15", times[2])
	}
}

func TestEngineDrainKillsProcs(t *testing.T) {
	e := NewEngine(1)
	reached := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1000)
		reached = true
	})
	e.RunUntil(10)
	e.Drain()
	e.Run()
	if reached {
		t.Fatal("drained process continued")
	}
}

func TestProcName(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("worker-3", func(p *Proc) {})
	if p.Name() != "worker-3" {
		t.Fatalf("Name() = %q", p.Name())
	}
	if p.Engine() != e {
		t.Fatal("Engine() mismatch")
	}
	e.Run()
}

// TestFifoMatchesSlice drives the mailbox's queue through random pushes and
// pops around a standing backlog, and requires the same FIFO sequence as a
// plain slice queue. The backlog never drains, so without compaction the
// consumed prefix would make the buffer grow with every push; with it the
// capacity stays within a small multiple of the peak backlog.
func TestFifoMatchesSlice(t *testing.T) {
	rng := NewRNG(5)
	var f fifo[int]
	var ref []int
	next, peak := 0, 0
	for op := 0; op < 20000; op++ {
		if len(ref) < 16 || rng.Intn(2) == 0 {
			f.push(next)
			ref = append(ref, next)
			next++
			peak = max(peak, len(ref))
			continue
		}
		if got := f.pop(); got != ref[0] {
			t.Fatalf("op %d: popped %d, want %d", op, got, ref[0])
		}
		ref = ref[1:]
		if f.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, f.len(), len(ref))
		}
	}
	if next < 5000 {
		t.Fatalf("only %d pushes", next)
	}
	if c := cap(f.buf); c > 4*peak {
		t.Fatalf("buffer capacity %d for a peak backlog of %d", c, peak)
	}
}
