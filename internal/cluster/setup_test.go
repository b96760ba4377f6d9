package cluster

import (
	"fmt"
	"slices"
	"testing"

	"mklite/internal/apps"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/mem"
)

// setupKernels names the three kernels the node-setup tests and
// benchmarks cover.
var setupKernels = []struct {
	name string
	typ  kernel.Type
}{
	{"linux", kernel.TypeLinux},
	{"mckernel", kernel.TypeMcKernel},
	{"mos", kernel.TypeMOS},
}

// setupJob is a 64-rank MiniFE job on an SNC-4 node. At 4 nodes its
// working set overflows MCDRAM, so McKernel's later ranks take the
// demand-paging fallback and every placement path runs.
func setupJob(kt kernel.Type) Job {
	return Job{App: apps.MiniFE(), Kernel: kt, Nodes: 4, Seed: 1}.normalized()
}

// maxSetupAllocs is the allocation budget of one setupJob setupNode per
// kernel: one batch of address spaces (with their inline VMAs, indexes and
// first backings), the heaps, spilled demand backings and per-rank state
// the model keeps, plus one placement per quadrant. Measured; a change that
// raises it is a regression to justify, one that lowers it should lower
// these too.
var maxSetupAllocs = map[kernel.Type]float64{
	kernel.TypeLinux:    221,
	kernel.TypeMcKernel: 191,
	kernel.TypeMOS:      112,
}

// bootN boots n fresh kernels for j, so that a measured loop can lay a job
// out on a pristine node each iteration without counting the boot.
func bootN(tb testing.TB, j Job, n int) []kernel.Kernel {
	tb.Helper()
	ks := make([]kernel.Kernel, n)
	for i := range ks {
		k, err := bootKernel(j)
		if err != nil {
			tb.Fatal(err)
		}
		ks[i] = k
	}
	return ks
}

func TestSetupNodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("budgets are measured without -race instrumentation")
	}
	for _, sk := range setupKernels {
		t.Run(sk.name, func(t *testing.T) {
			j := setupJob(sk.typ)
			const runs = 3
			ks := bootN(t, j, runs+1) // AllocsPerRun adds a warm-up call
			next := 0
			got := testing.AllocsPerRun(runs, func() {
				if _, err := setupNode(ks[next], j); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if budget := maxSetupAllocs[sk.typ]; got > budget {
				t.Fatalf("setupNode made %v allocations, budget %v", got, budget)
			}
			t.Logf("setupNode: %v allocations", got)
		})
	}
}

func TestMemTimeForAllocatesNothing(t *testing.T) {
	for _, sk := range setupKernels {
		j := setupJob(sk.typ)
		k := bootN(t, j, 1)[0]
		ns, err := setupNode(k, j)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{0, len(ns.ranks) - 1} {
			rs := ns.ranks[r]
			if n := testing.AllocsPerRun(100, func() { _ = memTimeFor(k, j, rs) }); n != 0 {
				t.Errorf("%s rank %d: memTimeFor made %v allocations, want 0", sk.name, r, n)
			}
		}
	}
}

// domainLists returns every rank's working-set, heap and shm domain
// preference orders, in rank and address order.
func domainLists(ns *nodeState) [][]int {
	var out [][]int
	for _, rs := range ns.ranks {
		for _, v := range rs.as.VMAs() {
			out = append(out, v.Pol.Domains)
		}
	}
	return out
}

// appendsStayPrivate appends a distinct element to each list and reports
// whether every append kept its own element. Lists that share spare
// capacity fail: a later append overwrites an earlier one's element.
func appendsStayPrivate(lists [][]int) bool {
	grown := make([][]int, len(lists))
	for i, l := range lists {
		grown[i] = append(l, -1-i)
	}
	for i, g := range grown {
		if g[len(g)-1] != -1-i {
			return false
		}
	}
	return true
}

func cloneAll(lists [][]int) [][]int {
	out := make([][]int, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

// TestDomainListsDoNotAlias appends to every domain list node setup hands
// out — kernel MapPolicy and NewHeap defaults, DomainsOfKind, and the
// per-quadrant placement lists the ranks' VMAs share — and checks that
// each append stays private and that later policies and a second setup
// return unchanged domain orders.
func TestDomainListsDoNotAlias(t *testing.T) {
	for _, sk := range setupKernels {
		for _, ddrOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ddronly=%v", sk.name, ddrOnly), func(t *testing.T) {
				j := setupJob(sk.typ)
				j.ForceDDROnly = ddrOnly
				if sk.typ == kernel.TypeLinux {
					// A preferred domain makes Linux build its
					// MapPolicy list with spare capacity.
					cfg := *j.Linux
					cfg.PreferredDomain = 4
					j.Linux = &cfg
				}
				ks := bootN(t, j, 2)
				k := ks[0]
				node := k.Partition().Node
				heapDomains := func() []int {
					as := mem.NewAddrSpace(k.Phys())
					if _, err := k.NewHeap(as, 64*hw.MiB, nil); err != nil {
						t.Fatal(err)
					}
					return as.VMAs()[0].Pol.Domains
				}
				bootLists := func() [][]int {
					return [][]int{
						k.MapPolicy(mem.VMAAnon).Domains,
						k.MapPolicy(mem.VMAShared).Domains,
						heapDomains(),
						node.DomainsOfKind(hw.MCDRAM),
						node.DomainsOfKind(hw.DDR4),
					}
				}
				want := cloneAll(bootLists())
				for range 2 {
					if !appendsStayPrivate(bootLists()) {
						t.Error("two appends to boot-time domain lists shared capacity")
					}
				}
				if got := bootLists(); !slices.EqualFunc(got, want, slices.Equal) {
					t.Errorf("boot-time domain lists = %v after appends, want %v", got, want)
				}

				first, err := setupNode(k, j)
				if err != nil {
					t.Fatal(err)
				}
				orders := cloneAll(domainLists(first))
				if !appendsStayPrivate(domainLists(first)) {
					t.Error("appends to two ranks' domain lists shared capacity")
				}
				if got := domainLists(first); !slices.EqualFunc(got, orders, slices.Equal) {
					t.Error("appending to one rank's domain list changed another's")
				}
				second, err := setupNode(ks[1], j)
				if err != nil {
					t.Fatal(err)
				}
				if got := domainLists(second); !slices.EqualFunc(got, orders, slices.Equal) {
					t.Error("a second setupNode returned different domain orders")
				}
			})
		}
	}
}

// TestPlacementListsDoNotAlias checks the per-quadrant lists, which are
// windows into one backing array: an append to one must not rewrite
// another.
func TestPlacementListsDoNotAlias(t *testing.T) {
	for _, node := range []*hw.NodeSpec{hw.KNL7250SNC4(), hw.KNL7250Quadrant()} {
		mcAll, ddrAll := node.DomainsOfKind(hw.MCDRAM), node.DomainsOfKind(hw.DDR4)
		for quad := 0; quad < 4; quad++ {
			pl := newPlacement(node, mcAll, ddrAll, quad)
			lists := func() [][]int { return [][]int{pl.mc, pl.ddr, pl.mcDDR, pl.mos} }
			want := cloneAll(lists())
			if !appendsStayPrivate(lists()) {
				t.Errorf("%s quad %d: appends to placement lists shared capacity", node.Name, quad)
			}
			if got := lists(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s quad %d: placement lists = %v after appends, want %v", node.Name, quad, got, want)
			}
			if pl.mc[0] != pl.mcHome || pl.ddr[0] != pl.ddrHome {
				t.Errorf("%s quad %d: home domains %d/%d not first in %v/%v", node.Name, quad, pl.mcHome, pl.ddrHome, pl.mc, pl.ddr)
			}
		}
	}
}

// BenchmarkSetupNode lays one setupJob out on a freshly booted node; the
// boot is outside the timer.
func BenchmarkSetupNode(b *testing.B) {
	for _, sk := range setupKernels {
		b.Run(sk.name, func(b *testing.B) {
			j := setupJob(sk.typ)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := bootN(b, j, 1)[0]
				b.StartTimer()
				if _, err := setupNode(k, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBootKernel boots each kernel on a fresh SNC-4 node (McKernel
// includes its host Linux and the IHK reservation).
func BenchmarkBootKernel(b *testing.B) {
	for _, sk := range setupKernels {
		b.Run(sk.name, func(b *testing.B) {
			j := setupJob(sk.typ)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bootKernel(j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeapReplayStep replays one steady-state timestep of the Lulesh
// brk trace on one rank's heap: the Linux engine faults its regrowth anew
// every step, the LWK engines serve it from their over-reserved heap. The
// node is set up and the heap warmed by a few steps outside the timer.
func BenchmarkHeapReplayStep(b *testing.B) {
	for _, sk := range setupKernels {
		b.Run(sk.name, func(b *testing.B) {
			j := Job{App: apps.Lulesh(), Kernel: sk.typ, Nodes: 64, Seed: 1}.normalized()
			k := bootN(b, j, 1)[0]
			ns, err := setupNode(k, j)
			if err != nil {
				b.Fatal(err)
			}
			ops := j.App.HeapOpsPerStep(j.Nodes)
			brk, costs := k.SyscallTime(kernel.SysBrk), k.Costs()
			h := ns.heaps[1]
			for range 4 {
				replayHeapStep(h, ops, brk, costs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replayHeapStep(h, ops, brk, costs)
			}
		})
	}
}

// TestSetupNodeSpreadsRanksOverQuadrants checks the NUMA-aware block
// distribution every launch takes: ranks fill the four quadrants in equal
// blocks, each rank gets its own address space, and the first rank placed
// in a quadrant starts its working set in one of that quadrant's home
// domains (later ones may spill once the home MCDRAM is full).
func TestSetupNodeSpreadsRanksOverQuadrants(t *testing.T) {
	for _, sk := range setupKernels {
		j := setupJob(sk.typ)
		k := bootN(t, j, 1)[0]
		ns, err := setupNode(k, j)
		if err != nil {
			t.Fatalf("%s: %v", sk.name, err)
		}
		node := k.Partition().Node
		mcAll, ddrAll := node.DomainsOfKind(hw.MCDRAM), node.DomainsOfKind(hw.DDR4)
		var perQuad [4]int
		spaces := map[*mem.AddrSpace]bool{}
		for _, rs := range ns.ranks {
			first := perQuad[rs.homeQuad] == 0
			perQuad[rs.homeQuad]++
			if spaces[rs.as] {
				t.Fatalf("%s: rank %d shares an address space", sk.name, rs.id)
			}
			spaces[rs.as] = true
			pl := newPlacement(node, mcAll, ddrAll, rs.homeQuad)
			if first && len(rs.ws.Backings) > 0 {
				if d := rs.ws.Backings[0].Ext.Domain; d != pl.mcHome && d != pl.ddrHome {
					t.Errorf("%s: rank %d (quadrant %d) working set starts in domain %d, home domains %d/%d",
						sk.name, rs.id, rs.homeQuad, d, pl.mcHome, pl.ddrHome)
				}
			}
		}
		for q, n := range perQuad {
			if n != j.App.RanksPerNode/4 {
				t.Errorf("%s: quadrant %d holds %d ranks, want %d", sk.name, q, n, j.App.RanksPerNode/4)
			}
		}
	}
}
