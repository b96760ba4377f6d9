package mem

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mklite/internal/hw"
	"mklite/internal/sim"
)

// refDomain is one domain's free list as the allocator kept it before
// splits went in place: every Alloc and allocAt built a replacement slice
// of the [pre][post] remainders and spliced it in with nested appends. It
// is kept here as the reference model TestFreeListMatchesAppendSplice
// drives the in-place allocator against.
type refDomain struct {
	free    []freeRange
	freeSum int64
	bound   int64
}

func (d *refDomain) alloc(size, align int64) (int64, bool) {
	for i, f := range d.free {
		start := (f.start + align - 1) &^ (align - 1)
		pad := start - f.start
		if f.size < pad+size {
			continue
		}
		var repl []freeRange
		if pad > 0 {
			repl = append(repl, freeRange{start: f.start, size: pad})
		}
		if rest := f.size - pad - size; rest > 0 {
			repl = append(repl, freeRange{start: start + size, size: rest})
		}
		d.free = append(d.free[:i], append(repl, d.free[i+1:]...)...)
		d.freeSum -= size
		return start, true
	}
	return 0, false
}

func (d *refDomain) allocAt(start, size int64) bool {
	for i, f := range d.free {
		if f.start <= start && start+size <= f.start+f.size {
			var repl []freeRange
			if pre := start - f.start; pre > 0 {
				repl = append(repl, freeRange{start: f.start, size: pre})
			}
			if post := f.start + f.size - (start + size); post > 0 {
				repl = append(repl, freeRange{start: start + size, size: post})
			}
			d.free = append(d.free[:i], append(repl, d.free[i+1:]...)...)
			d.freeSum -= size
			return true
		}
	}
	return false
}

func (d *refDomain) fragment(holeSize, stride int64) []int64 {
	var pins []int64
	for at := stride - holeSize; at+holeSize <= d.bound; at += stride {
		if d.allocAt(at, holeSize) {
			pins = append(pins, at)
		}
	}
	return pins
}

func (d *refDomain) release(start, size int64) {
	idx := sort.Search(len(d.free), func(i int) bool { return d.free[i].start >= start })
	d.free = append(d.free, freeRange{})
	copy(d.free[idx+1:], d.free[idx:])
	d.free[idx] = freeRange{start: start, size: size}
	d.freeSum += size
	if idx+1 < len(d.free) && d.free[idx].start+d.free[idx].size == d.free[idx+1].start {
		d.free[idx].size += d.free[idx+1].size
		d.free = append(d.free[:idx+1], d.free[idx+2:]...)
	}
	if idx > 0 && d.free[idx-1].start+d.free[idx-1].size == d.free[idx].start {
		d.free[idx-1].size += d.free[idx].size
		d.free = append(d.free[:idx], d.free[idx+1:]...)
	}
}

// smallNode is a two-domain node small enough that random 4 KiB-granular
// traffic fills, fragments and exhausts it within a few hundred operations.
func smallNode() *hw.NodeSpec {
	return &hw.NodeSpec{
		Name: "small",
		Domains: []hw.DomainSpec{
			{ID: 0, Mem: hw.MemDeviceSpec{Kind: hw.DDR4, Capacity: 8 * hw.MiB}},
			{ID: 1, Mem: hw.MemDeviceSpec{Kind: hw.MCDRAM, Capacity: 2 * hw.MiB}},
		},
	}
}

// TestFreeListMatchesAppendSplice drives the in-place allocator and the
// retired append-splice one through identical random Alloc, allocAt,
// Fragment and Free sequences. Every operation must return the same
// extents and leave identical free lists, and the allocator's invariants
// must hold after each one. The sequences reach all four split shapes:
// pre and post remainders, pre only, post only, and an exact fit.
func TestFreeListMatchesAppendSplice(t *testing.T) {
	const page = int64(hw.Page4K)
	for _, seed := range []uint64{1, 2, 3, 7, 42, 0xbeef} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			p := NewPhys(smallNode())
			ref := map[int]*refDomain{}
			for id, d := range p.domains {
				ref[id] = &refDomain{free: slices.Clone(d.free), freeSum: d.freeSum, bound: d.bound}
			}
			var live []Extent
			shapes := map[string]int{}
			for step := 0; step < 3000; step++ {
				dom := rng.Intn(2)
				d, r := p.domains[dom], ref[dom]
				before := slices.Clone(d.free)
				var op string
				switch x := rng.Intn(100); {
				case x < 40 || len(live) == 0:
					size := int64(1+rng.Intn(32)) * page
					align := page << rng.Intn(5)
					op = fmt.Sprintf("Alloc(%d, %d, %d)", dom, size, align)
					e, err := p.Alloc(dom, size, align)
					start, ok := r.alloc(size, align)
					if (err == nil) != ok || (ok && e != Extent{Domain: dom, Start: start, Size: size}) {
						t.Fatalf("step %d %s: got %+v, %v; reference %d, %v", step, op, e, err, start, ok)
					}
					if err == nil {
						live = append(live, e)
						shapes[splitShape(before, e)]++
					}
				case x < 60 && len(d.free) > 0:
					// Carve inside a free range, sometimes exactly it.
					f := d.free[rng.Intn(len(d.free))]
					start, size := f.start, f.size
					if rng.Bool(0.7) {
						pages := f.size / page
						lo := rng.Int63n(pages)
						start = f.start + lo*page
						size = (1 + rng.Int63n(pages-lo)) * page
					}
					op = fmt.Sprintf("allocAt(%d, %d, %d)", dom, start, size)
					e, err := p.allocAt(dom, start, size)
					if ok := r.allocAt(start, size); (err == nil) != ok {
						t.Fatalf("step %d %s: got %v, reference %v", step, op, err, ok)
					}
					if err == nil {
						live = append(live, e)
						shapes[splitShape(before, e)]++
					}
				case x < 65:
					hole := int64(1+rng.Intn(4)) * page
					stride := hole + int64(1+rng.Intn(64))*page
					op = fmt.Sprintf("Fragment(%d, %d, %d)", dom, hole, stride)
					pins, err := p.Fragment(dom, hole, stride)
					if err != nil {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
					refPins := r.fragment(hole, stride)
					if len(pins) != len(refPins) {
						t.Fatalf("step %d %s: %d pins, reference %d", step, op, len(pins), len(refPins))
					}
					for i, e := range pins {
						if e.Start != refPins[i] || e.Size != hole {
							t.Fatalf("step %d %s: pin %d = %+v, reference start %d", step, op, i, e, refPins[i])
						}
					}
					live = append(live, pins...)
				default:
					i := rng.Intn(len(live))
					e := live[i]
					live = append(live[:i], live[i+1:]...)
					op = fmt.Sprintf("Free(%+v)", e)
					p.Free(e)
					ref[e.Domain].release(e.Start, e.Size)
				}
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				for id, d := range p.domains {
					r := ref[id]
					if !slices.Equal(d.free, r.free) || d.freeSum != r.freeSum {
						t.Fatalf("step %d %s: domain %d free list %v (sum %d), reference %v (sum %d)",
							step, op, id, d.free, d.freeSum, r.free, r.freeSum)
					}
				}
			}
			for _, s := range []string{"pre+post", "pre", "post", "exact"} {
				if shapes[s] == 0 {
					t.Errorf("no %s split exercised (shapes %v)", s, shapes)
				}
			}
		})
	}
}

// splitShape names how taking e split the free range that held it, given
// the free list before the split.
func splitShape(free []freeRange, e Extent) string {
	for _, f := range free {
		if f.start <= e.Start && e.End() <= f.start+f.size {
			pre, post := e.Start > f.start, e.End() < f.start+f.size
			switch {
			case pre && post:
				return "pre+post"
			case pre:
				return "pre"
			case post:
				return "post"
			default:
				return "exact"
			}
		}
	}
	return "none"
}

// TestAllocSplitAllocatesNothing pins the common split — no alignment pad,
// a remainder after the extent — to zero allocations.
func TestAllocSplitAllocatesNothing(t *testing.T) {
	p := NewPhys(smallNode())
	page := int64(hw.Page4K)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := p.Alloc(0, page, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Alloc with a post remainder: %v allocations, want 0", n)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocUpToPresizedDstAllocatesNothing pins AllocUpTo's append form:
// with room in dst, spilling into several extents allocates nothing.
func TestAllocUpToPresizedDstAllocatesNothing(t *testing.T) {
	p := NewPhys(smallNode())
	page := int64(hw.Page4K)
	// Pin every other page so each call returns several extents.
	if _, err := p.Fragment(0, page, 2*page); err != nil {
		t.Fatal(err)
	}
	dst := make([]Extent, 0, 8)
	var got int64
	if n := testing.AllocsPerRun(100, func() {
		dst, got = p.AllocUpTo(dst[:0], 0, 4*page, page)
	}); n != 0 {
		t.Fatalf("AllocUpTo into presized dst: %v allocations, want 0", n)
	}
	if got != 4*page || len(dst) != 4 {
		t.Fatalf("last call got %d bytes in %d extents, want %d in 4", got, len(dst), 4*page)
	}
}
