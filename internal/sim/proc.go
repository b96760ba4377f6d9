package sim

import "fmt"

// Proc is a cooperative simulation process: a goroutine whose execution is
// interleaved with the engine so that exactly one goroutine — either the
// engine loop or a single process — runs at any moment. Processes express
// protocols that are awkward as raw event callbacks (a thread that computes,
// blocks in a syscall, is woken by a message, computes again, ...).
//
// A process may only call its blocking methods (Sleep, WaitSignal, Park,
// Mailbox.Recv) from its own goroutine; the engine resumes it by scheduling
// wake entries that name the process directly, with no closure.
type Proc struct {
	eng    *Engine
	name   string
	resume chan procMsg
	done   bool
	killed bool
	parked bool // blocked in Park, awaiting Unpark
}

type procMsg struct{ kill bool }

// procKilled is the panic payload used to unwind a killed process.
type procKilled struct{ p *Proc }

// Spawn starts fn as a new process at the current virtual time (the process
// body begins executing when the engine processes the start event). The
// name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan procMsg)}
	e.procs[p] = e.procSeq
	e.procSeq++
	e.After(0, func() {
		// The engine's dispatch/yield handshake guarantees this is the
		// only runnable goroutine until the process blocks or exits,
		// so it cannot race with simulation state.
		go p.run(fn) //mklint:ignore nogoroutine Proc is the cooperative abstraction itself; the handshake serialises execution
		// Hand control to the process body and wait for it to block
		// or finish.
		p.dispatch()
	})
	return p
}

func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		p.done = true
		delete(p.eng.procs, p)
		if r := recover(); r != nil {
			if pk, ok := r.(procKilled); ok && pk.p == p {
				// Normal teardown of a killed process.
				p.eng.yieldCh <- struct{}{}
				return
			}
			// Real panic: surface it in the engine goroutine by
			// re-panicking there is not possible; crash loudly
			// here with context instead.
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
		p.eng.yieldCh <- struct{}{}
	}()
	// Wait for the initial dispatch before running the body.
	p.block()
	fn(p)
}

// dispatch resumes the process goroutine and blocks the engine until the
// process yields (blocks or finishes).
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.resume <- procMsg{kill: p.killed}
	<-p.eng.yieldCh
}

// block suspends the process goroutine until the engine dispatches it again.
// It must only be called from the process goroutine.
func (p *Proc) block() {
	msg := <-p.resume
	if msg.kill {
		panic(procKilled{p: p})
	}
}

// yield hands control back to the engine and suspends until re-dispatched.
func (p *Proc) yield() {
	p.eng.yieldCh <- struct{}{}
	p.block()
}

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned or been killed.
func (p *Proc) Done() bool { return p.done }

// Kill marks the process for termination. The process unwinds the next time
// it would be resumed (immediately if it is currently blocked on an event
// that has not fired yet — the kill is delivered via a zero-delay wake).
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.eng.wake(p.eng.now, p)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.wake(p.eng.now.Add(d), p)
	p.yield()
}

// Park suspends the process until another party calls Unpark on it: a
// one-shot, point-to-point wake for a reply whose sender knows exactly who
// is waiting (the IHK offload server's worker replying to the requester).
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Unpark wakes a process blocked in Park via a zero-delay wake at the
// current virtual time, exactly as firing a Signal with that one waiter
// would. Unparking a process that is not parked is a model bug — the wake
// would resume it out of some other blocking call — and panics.
func (p *Proc) Unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of process %q, which is not parked", p.name))
	}
	p.parked = false
	p.eng.wake(p.eng.now, p)
}

// Signal is a broadcast wake-up point for processes. The zero value is ready
// to use, and a Signal may be fired any number of times: each Fire wakes the
// processes waiting at that moment and keeps the waiter slice's capacity
// for the next round.
type Signal struct {
	waiters []*Proc
}

// WaitSignal suspends the process until s fires.
func (p *Proc) WaitSignal(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.yield()
}

// Fire wakes every process currently waiting on s, in wait order. Each wakes
// via its own zero-delay wake at the current virtual time.
func (s *Signal) Fire(e *Engine) {
	for i, w := range s.waiters {
		e.wake(e.now, w)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Mailbox is a FIFO rendezvous between processes carrying values of type T:
// senders never block, receivers block while the box is empty. The zero
// value is ready to use. Items and waiting receivers are stored unboxed in
// queues that keep their capacity, so a steady send/receive cycle allocates
// nothing.
type Mailbox[T any] struct {
	items   fifo[T]
	waiters fifo[*Proc]
}

// Send deposits v and wakes one waiting receiver, if any.
func (m *Mailbox[T]) Send(e *Engine, v T) {
	m.items.push(v)
	if m.waiters.len() > 0 {
		e.wake(e.now, m.waiters.pop())
	}
}

// Recv blocks p until an item is available, then removes and returns it.
// It must be called from p's own goroutine.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.items.len() == 0 {
		m.waiters.push(p)
		p.yield()
	}
	return m.items.pop()
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return m.items.len() }

// fifo is a slice-backed FIFO queue that keeps its capacity: pop advances a
// head index (zeroing the slot) and resets the slice once it drains, and a
// push into a full slice whose front half is consumed slides the live items
// down instead of growing.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the front item; the queue must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}
