package ihk

import (
	"fmt"

	"mklite/internal/kernel"
	"mklite/internal/sim"
	"mklite/internal/trace"
)

// IKC models the Inter-Kernel Communication layer: message queues between
// LWK cores and Linux cores used for system-call offloading. The channel is
// NUMA-topology aware — "IKC ... understands the underlying topology to
// perform efficient message delivery between the two kernels" — so the
// one-way latency depends on whether the two endpoint cores share a NUMA
// domain.
type IKC struct {
	part kernel.Partition
	// LocalLatency is the one-way message latency between cores in the
	// same NUMA domain; RemoteLatency applies across domains.
	LocalLatency  sim.Duration
	RemoteLatency sim.Duration
}

// NewIKC builds the channel model for a partition.
func NewIKC(part kernel.Partition) *IKC {
	return &IKC{
		part:          part,
		LocalLatency:  600 * sim.Nanosecond,
		RemoteLatency: 1100 * sim.Nanosecond,
	}
}

// OneWay returns the message latency from an application core to an OS
// core.
func (c *IKC) OneWay(appCore, osCore int) sim.Duration {
	node := c.part.Node
	if node.Cores[appCore].Domain == node.Cores[osCore].Domain {
		return c.LocalLatency
	}
	return c.RemoteLatency
}

// RoundTrip returns request+response latency between the cores, excluding
// the service time on the Linux side.
func (c *IKC) RoundTrip(appCore, osCore int) sim.Duration {
	return 2 * c.OneWay(appCore, osCore)
}

// BestRoundTrip returns the round-trip latency to the NUMA-nearest OS core
// — the routing both kernels actually use.
func (c *IKC) BestRoundTrip(appCore int) (sim.Duration, error) {
	osCore, err := c.part.NearestOSCore(appCore)
	if err != nil {
		return 0, fmt.Errorf("ihk: %w", err)
	}
	return c.RoundTrip(appCore, osCore), nil
}

// OffloadServer is a discrete-event model of the Linux-side syscall
// servicing path: a fixed pool of proxy workers drains a request queue.
// When many LWK cores offload simultaneously (e.g. 64 ranks all hitting a
// device syscall in the same exchange phase), queueing delay adds to the
// IKC round trip — the contention component of the LAMMPS slowdown.
type OffloadServer struct {
	eng     *sim.Engine
	ikc     *IKC
	workers int
	queue   sim.Mailbox[offloadReq]
	// Serviced counts completed offloads.
	Serviced int
	// depth tracks requests enqueued but not yet picked up by a worker;
	// the engine's trace sink exports it as the "offload.queue_depth"
	// counter timeline.
	depth int64
}

// offloadReq is one queued syscall. The reply goes straight back to the
// requesting process, parked until its worker unparks it, so a call needs
// no reply object of its own.
type offloadReq struct {
	caller  *sim.Proc
	service sim.Duration
}

// NewOffloadServer starts `workers` proxy workers on the engine.
func NewOffloadServer(eng *sim.Engine, ikc *IKC, workers int) *OffloadServer {
	s := &OffloadServer{
		eng:     eng,
		ikc:     ikc,
		workers: workers,
	}
	for w := 0; w < workers; w++ {
		eng.Spawn(fmt.Sprintf("proxy-worker-%d", w), s.worker)
	}
	return s
}

func (s *OffloadServer) worker(p *sim.Proc) {
	for {
		req := s.queue.Recv(p)
		s.depth--
		if sink := s.eng.Sink(); sink.Eventing() {
			sink.CounterEvent(int64(s.eng.Now()), 0, "offload.queue_depth", s.depth)
		}
		p.Sleep(req.service)
		s.Serviced++
		s.eng.Sink().CountKey(trace.KeyIHKServiced, 1)
		req.caller.Unpark()
	}
}

// Offload issues one offloaded syscall from the calling process on appCore
// with the given Linux-side service time, blocking the caller for the IKC
// round trip plus queueing plus service.
func (s *OffloadServer) Offload(p *sim.Proc, appCore int, service sim.Duration) error {
	rtt, err := s.ikc.BestRoundTrip(appCore)
	if err != nil {
		return err
	}
	// Request flight time.
	p.Sleep(rtt / 2)
	s.queue.Send(s.eng, offloadReq{caller: p, service: service})
	s.depth++
	if sink := s.eng.Sink(); sink != nil {
		sink.CountKey(trace.KeyIHKOffloads, 1)
		sink.CountKey(trace.KeyIHKRTTNs, int64(rtt))
		sink.Observe("ihk.rtt_ns", int64(rtt))
		if sink.Eventing() {
			sink.CounterEvent(int64(s.eng.Now()), 0, "offload.queue_depth", s.depth)
		}
	}
	p.Park()
	// Response flight time.
	p.Sleep(rtt - rtt/2)
	return nil
}
