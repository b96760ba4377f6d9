package ihk

import (
	"testing"

	"mklite/internal/sim"
)

// offloadPeriod is one requester cycle in the steady-state tests: an
// offload, then a sleep to the next period boundary.
const offloadPeriod = sim.Millisecond

// startOffloader returns an engine running one requester on core 5 that
// issues an offload every offloadPeriod, serviced by one proxy worker.
func startOffloader(tb testing.TB) (*sim.Engine, *OffloadServer) {
	tb.Helper()
	lin := bootLinux(tb)
	eng := sim.NewEngine(1)
	srv := NewOffloadServer(eng, NewIKC(lin.Partition()), 1)
	eng.Spawn("requester", func(p *sim.Proc) {
		for {
			start := p.Now()
			if err := srv.Offload(p, 5, 2*sim.Microsecond); err != nil {
				panic(err)
			}
			p.Sleep(offloadPeriod - sim.Duration(p.Now()-start))
		}
	})
	eng.RunUntil(eng.Now())
	return eng, srv
}

func TestOffloadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("budgets are measured without -race instrumentation")
	}
	eng, srv := startOffloader(t)
	defer eng.Drain()
	got := testing.AllocsPerRun(100, func() { eng.RunUntil(eng.Now().Add(offloadPeriod)) })
	if got != 0 {
		t.Fatalf("%v allocations per offload, budget 0", got)
	}
	if srv.Serviced < 100 {
		t.Fatalf("serviced %d offloads, want >= 100", srv.Serviced)
	}
}

// BenchmarkOffload is one uncontended offloaded syscall: request flight,
// proxy-worker service, reply, response flight.
func BenchmarkOffload(b *testing.B) {
	eng, srv := startOffloader(b)
	defer eng.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now().Add(offloadPeriod))
	}
	b.StopTimer()
	if srv.Serviced < b.N {
		b.Fatalf("serviced %d offloads for %d iterations", srv.Serviced, b.N)
	}
}
