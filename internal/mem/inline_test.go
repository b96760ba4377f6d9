package mem

import (
	"slices"
	"testing"

	"mklite/internal/hw"
)

// Tests for the inline storage of address spaces and VMAs: the first
// inlineVMAs areas and their index live in the AddrSpace, the first
// inlineBackings backings in the VMA.

// imagePolicies are a rank's setup-image policies: an upfront 1 GiB-page
// working set in DDR4 domain 0, a demand-paged heap, and an upfront
// 4 KiB-page shm window in domain 1.
func imagePolicies() (ws, heap, shm Policy) {
	return Policy{Domains: []int{0}, MaxPage: hw.Page1G},
		Policy{Domains: []int{0}, MaxPage: hw.Page2M, Demand: true},
		Policy{Domains: []int{1}, MaxPage: hw.Page4K}
}

// mapImage maps a setup image into as and returns its three areas.
func mapImage(tb testing.TB, as *AddrSpace, ws, heap, shm Policy) [3]*VMA {
	tb.Helper()
	var out [3]*VMA
	for i, m := range []struct {
		size int64
		kind VMAKind
		pol  Policy
	}{
		{1 * hw.GiB, VMAAnon, ws},
		{64 * hw.MiB, VMAHeap, heap},
		{2 * hw.MiB, VMAShared, shm},
	} {
		v, err := as.Map(m.size, m.kind, m.pol)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// TestMapSetupImageAllocatesNothing maps a three-area image into address
// spaces from one NewAddrSpaces batch: areas, index and backings all fit the
// inline storage, so the mapping allocates nothing.
func TestMapSetupImageAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("budgets are measured without -race instrumentation")
	}
	const runs = 10
	spaces := NewAddrSpaces(newKNLPhys(), runs+1) // AllocsPerRun adds a warm-up call
	ws, heap, shm := imagePolicies()
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		mapImage(t, &spaces[next], ws, heap, shm)
		next++
	})
	if got != 0 {
		t.Fatalf("mapping a setup image made %v allocations, want 0", got)
	}
	for i := range spaces {
		for j, v := range spaces[i].VMAs() {
			if v != &spaces[i].inline[j] {
				t.Fatalf("space %d area %d is not in its inline slot", i, j)
			}
		}
	}
}

// maxPhysAllocs bounds NewPhys and NewPhysView: the Phys, its domain
// table, one free-list array, and (for a view) the per-domain grant counts.
const maxPhysAllocs = 4

// grantsOver returns n disjoint, non-adjacent 2 MiB grants spread round
// robin over the node's domains.
func grantsOver(node *hw.NodeSpec, n int) []Extent {
	out := make([]Extent, n)
	for i := range out {
		d := node.Domains[i%len(node.Domains)]
		out[i] = Extent{Domain: d.ID, Start: int64(i) * 4 * int64(hw.Page2M), Size: int64(hw.Page2M)}
	}
	return out
}

func TestNewPhysAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("budgets are measured without -race instrumentation")
	}
	node := hw.KNL7250SNC4()
	nPhys := testing.AllocsPerRun(10, func() { NewPhys(node) })
	if nPhys > maxPhysAllocs {
		t.Errorf("NewPhys made %v allocations, budget %v", nPhys, maxPhysAllocs)
	}
	t.Logf("NewPhys: %v allocations", nPhys)
	few, many := grantsOver(node, 3), grantsOver(node, 512)
	nFew := testing.AllocsPerRun(10, func() { NewPhysView(node, few) })
	nMany := testing.AllocsPerRun(10, func() { NewPhysView(node, many) })
	if nFew > maxPhysAllocs || nMany != nFew {
		t.Errorf("NewPhysView made %v allocations for %d grants and %v for %d, want the same count within %v",
			nFew, len(few), nMany, len(many), maxPhysAllocs)
	}
	t.Logf("NewPhysView: %v allocations", nMany)
}

// TestNewPhysViewCoalescesInPlace grants adjacent and unordered extents and
// checks the view's free lists come out sorted and coalesced.
func TestNewPhysViewCoalescesInPlace(t *testing.T) {
	node := hw.KNL7250SNC4()
	mb := int64(hw.MiB)
	p := NewPhysView(node, []Extent{
		{Domain: 4, Start: 8 * mb, Size: 2 * mb},
		{Domain: 0, Start: 0, Size: 4 * mb},
		{Domain: 4, Start: 2 * mb, Size: 2 * mb},
		{Domain: 4, Start: 4 * mb, Size: 4 * mb},
		{Domain: 0, Start: 16 * mb, Size: 4 * mb},
	})
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := map[int][]Extent{
		0: {{Domain: 0, Start: 0, Size: 4 * mb}, {Domain: 0, Start: 16 * mb, Size: 4 * mb}},
		4: {{Domain: 4, Start: 2 * mb, Size: 8 * mb}},
	}
	for _, d := range node.Domains {
		got := p.AppendFree(nil, d.ID)
		if !slices.Equal(got, want[d.ID]) {
			t.Errorf("domain %d free list %v, want %v", d.ID, got, want[d.ID])
		}
	}
	if p.Capacity(4) != 8*mb || p.FreeBytes(0) != 8*mb {
		t.Errorf("capacity(4) %d, free(0) %d", p.Capacity(4), p.FreeBytes(0))
	}
}

// TestPhysSparseDomainIDs builds an allocator over a node whose domain ids
// are not their positions: lookups must still find each domain.
func TestPhysSparseDomainIDs(t *testing.T) {
	node := &hw.NodeSpec{Domains: []hw.DomainSpec{
		{ID: 7, Mem: hw.MemDeviceSpec{Kind: hw.MCDRAM, Capacity: 4 * hw.MiB}},
		{ID: 0, Mem: hw.MemDeviceSpec{Kind: hw.DDR4, Capacity: 8 * hw.MiB}},
		{ID: 1, Mem: hw.MemDeviceSpec{Kind: hw.DDR4, Capacity: 2 * hw.MiB}},
	}}
	p := NewPhys(node)
	for _, d := range node.Domains {
		if p.FreeBytes(d.ID) != d.Mem.Capacity {
			t.Errorf("domain %d free %d, want %d", d.ID, p.FreeBytes(d.ID), d.Mem.Capacity)
		}
	}
	if p.FreeBytes(2) != 0 || p.FreeBytes(-1) != 0 {
		t.Error("unknown domain ids report free memory")
	}
	as := NewAddrSpace(p)
	if _, err := as.Map(4*hw.MiB, VMAAnon, Policy{Domains: []int{7, 0}}); err != nil {
		t.Fatal(err)
	}
	if as.BytesOfKind(hw.MCDRAM) != 4*hw.MiB || p.FreeBytes(7) != 0 {
		t.Errorf("MCDRAM bytes %d, domain 7 free %d", as.BytesOfKind(hw.MCDRAM), p.FreeBytes(7))
	}
}

// snapshot is a VMA's observable state, backings deep-copied.
type snapshot struct {
	start, size, populated int64
	prot                   Prot
	backings               []Backing
}

func snap(v *VMA) snapshot {
	return snapshot{v.Start, v.Size, v.Populated, v.Prot, slices.Clone(v.Backings)}
}

func sameSnap(a, b snapshot) bool {
	return a.start == b.start && a.size == b.size && a.populated == b.populated &&
		a.prot == b.prot && slices.Equal(a.backings, b.backings)
}

// TestBackingAppendsStayPrivate appends to every area's Backings, across
// two spaces of one batch, and checks no append lands in another area.
func TestBackingAppendsStayPrivate(t *testing.T) {
	spaces := NewAddrSpaces(newKNLPhys(), 2)
	ws, heap, shm := imagePolicies()
	var vmas []*VMA
	for i := range spaces {
		img := mapImage(t, &spaces[i], ws, heap, shm)
		vmas = append(vmas, img[:]...)
	}
	before := make([]snapshot, len(vmas))
	for i, v := range vmas {
		before[i] = snap(v)
	}
	grown := make([][]Backing, len(vmas))
	for i, v := range vmas {
		grown[i] = append(v.Backings, Backing{Ext: Extent{Domain: -1 - i}})
	}
	for i, v := range vmas {
		if g := grown[i]; g[len(g)-1].Ext.Domain != -1-i {
			t.Errorf("area %d: its append was overwritten", i)
		}
		if !sameSnap(snap(v), before[i]) {
			t.Errorf("area %d changed after appends to the areas' backings", i)
		}
	}
}

// TestInlineSlotsOverflow uses all three inline slots, then maps a fourth
// area, splits one with Protect, and unmaps and maps again: the early
// areas keep their addresses and contents, new areas come from the heap,
// and the index stays sorted.
func TestInlineSlotsOverflow(t *testing.T) {
	phys := newKNLPhys()
	as := NewAddrSpace(phys)
	pol := Policy{Domains: []int{0}, MaxPage: hw.Page4K}
	var first []*VMA
	for range inlineVMAs {
		v, err := as.Map(16*hw.MiB, VMAAnon, pol)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, v)
	}
	inline := func(v *VMA) bool {
		for i := range as.inline {
			if v == &as.inline[i] {
				return true
			}
		}
		return false
	}
	before := make([]snapshot, len(first))
	for i, v := range first {
		if !inline(v) {
			t.Fatalf("area %d is not inline", i)
		}
		before[i] = snap(v)
	}
	checkSorted := func(stage string) {
		t.Helper()
		vs := as.VMAs()
		for i := 1; i < len(vs); i++ {
			if vs[i-1].End() > vs[i].Start {
				t.Fatalf("%s: areas %d and %d out of order or overlapping", stage, i-1, i)
			}
		}
		if err := phys.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	fourth, err := as.Map(16*hw.MiB, VMAAnon, pol)
	if err != nil {
		t.Fatal(err)
	}
	if inline(fourth) || fourth.Start <= first[2].Start || fourth.Populated != 16*hw.MiB {
		t.Fatalf("fourth area: inline %v, start %#x, populated %d", inline(fourth), fourth.Start, fourth.Populated)
	}
	if got := as.VMAs(); !slices.Equal(got, append(slices.Clone(first), fourth)) {
		t.Fatalf("after a fourth Map the index is %v", got)
	}
	for i, v := range first {
		if !sameSnap(snap(v), before[i]) {
			t.Fatalf("area %d changed when a fourth was mapped", i)
		}
	}
	checkSorted("fourth Map")

	mid, err := as.Protect(first[1], 4*hw.MiB, 4*hw.MiB, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if inline(mid) || mid.Start != first[1].Start+4*hw.MiB || mid.Size != 4*hw.MiB || mid.Prot != ProtRead {
		t.Fatalf("Protect split: inline %v, start %#x, size %d, prot %v", inline(mid), mid.Start, mid.Size, mid.Prot)
	}
	if len(as.VMAs()) != 6 || first[1].Size != 4*hw.MiB || as.PopulatedBytes() != 4*16*hw.MiB {
		t.Fatalf("Protect split: %d areas, left size %d, populated %d", len(as.VMAs()), first[1].Size, as.PopulatedBytes())
	}
	checkSorted("Protect split")

	used := phys.UsedBytes(0)
	if err := as.Unmap(first[2]); err != nil {
		t.Fatal(err)
	}
	if phys.UsedBytes(0) != used-16*hw.MiB {
		t.Fatalf("Unmap returned %d bytes, want 16 MiB", used-phys.UsedBytes(0))
	}
	again, err := as.Map(16*hw.MiB, VMAAnon, pol)
	if err != nil {
		t.Fatal(err)
	}
	if again == first[2] || inline(again) || again.Populated != 16*hw.MiB || phys.UsedBytes(0) != used {
		t.Fatalf("Map after Unmap: reused slot %v, inline %v, populated %d, used %d",
			again == first[2], inline(again), again.Populated, phys.UsedBytes(0))
	}
	checkSorted("Unmap+Map")
	if !sameSnap(snap(first[0]), before[0]) {
		t.Fatal("area 0 changed")
	}
}

// TestAddrSpaceCopyPanics pins the no-copy rule: an initialised AddrSpace
// copied by value, or a zero AddrSpace, must not hand out areas.
func TestAddrSpaceCopyPanics(t *testing.T) {
	mustPanic := func(name string, as *AddrSpace) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Map did not panic", name)
			}
		}()
		as.Map(hw.MiB, VMAAnon, Policy{Domains: []int{0}, Demand: true})
	}
	orig := NewAddrSpace(newKNLPhys())
	if _, err := orig.Map(hw.MiB, VMAAnon, Policy{Domains: []int{0}}); err != nil {
		t.Fatal(err)
	}
	cp := *orig
	mustPanic("copy", &cp)
	mustPanic("zero", &AddrSpace{})
	if len(orig.VMAs()) != 1 {
		t.Fatalf("original has %d areas after the copy's Map, want 1", len(orig.VMAs()))
	}
}

// BenchmarkMapSetupImage maps a rank's three-area image into a fresh space
// of a pre-built batch; the allocator is rebuilt outside the timer.
func BenchmarkMapSetupImage(b *testing.B) {
	ws, heap, shm := imagePolicies()
	const batch = 16
	b.ReportAllocs()
	var spaces []AddrSpace
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			spaces = NewAddrSpaces(newKNLPhys(), batch)
			b.StartTimer()
		}
		mapImage(b, &spaces[i%batch], ws, heap, shm)
	}
}
