// Package mem implements the memory-management substrate shared by the
// three kernel models: a per-NUMA-domain physical extent allocator, virtual
// address spaces with VMAs, placement policies (NUMA preference, MCDRAM
// spill, upfront vs demand paging), and the two heap engines whose contrast
// drives the paper's Lulesh results — the Linux demand-paged heap and the
// LWKs' HPC-optimised heap.
package mem

import (
	"fmt"
	"slices"
	"sort"

	"mklite/internal/hw"
)

// Extent is a contiguous physical memory range inside one NUMA domain.
type Extent struct {
	Domain int
	Start  int64
	Size   int64
}

// End returns the first byte after the extent.
func (e Extent) End() int64 { return e.Start + e.Size }

// freeRange is an entry of a domain's free list.
type freeRange struct {
	start, size int64
}

// physDomain tracks one NUMA domain's physical memory.
type physDomain struct {
	id       int
	kind     hw.MemKind
	capacity int64       // bytes this allocator owns in the domain
	bound    int64       // end of the domain's address range (>= capacity)
	free     []freeRange // sorted by start, coalesced
	freeSum  int64
}

// Phys is a node's physical memory allocator: one extent allocator per NUMA
// domain. It is the single authority on physical occupancy — every kernel
// and every process address space on a node allocates through it.
type Phys struct {
	node *hw.NodeSpec
	// domains holds one allocator per NUMA domain in node.Domains order;
	// lookup finds a domain by id.
	domains []physDomain
	// scratch is the reused extent buffer the node's address spaces
	// populate through (allocScratch); its extents are copied into VMA
	// backings at once.
	scratch []Extent
}

// newPhys returns an allocator with every domain of the node present and
// owning no memory yet.
func newPhys(node *hw.NodeSpec) *Phys {
	p := &Phys{node: node, domains: make([]physDomain, len(node.Domains))}
	for i, d := range node.Domains {
		p.domains[i] = physDomain{id: d.ID, kind: d.Mem.Kind, bound: d.Mem.Capacity}
	}
	return p
}

// NewPhys returns an allocator with every domain of the node entirely free.
func NewPhys(node *hw.NodeSpec) *Phys {
	p := newPhys(node)
	// One backing array holds every domain's initial single-range list;
	// each list is clipped so a later split reallocates only its own.
	free := make([]freeRange, len(p.domains))
	for i := range p.domains {
		d := &p.domains[i]
		d.capacity, d.freeSum = d.bound, d.bound
		free[i] = freeRange{start: 0, size: d.bound}
		d.free = free[i : i+1 : i+1]
	}
	return p
}

// NewPhysView builds an allocator over a set of granted extents — the
// LWK's view of the memory IHK carved out of a running Linux. The extents
// keep their node-level offsets, so contiguity (and therefore large-page
// eligibility) is exactly what the donor could provide: an LWK booted late
// inherits Linux's fragmentation, one booted early gets pristine ranges
// (section II-D5).
func NewPhysView(node *hw.NodeSpec, grants []Extent) *Phys {
	p := newPhys(node)
	// Size each domain's list from its grant count, all carved from one
	// backing array: ends[i+1] is the end of domain i's window.
	ends := make([]int, len(p.domains)+1)
	for _, g := range grants {
		i := p.index(g.Domain)
		if i < 0 {
			panic(fmt.Sprintf("mem: grant in unknown domain %d", g.Domain))
		}
		ends[i+1]++
	}
	for i := range p.domains {
		ends[i+1] += ends[i]
	}
	free := make([]freeRange, len(grants))
	for i := range p.domains {
		p.domains[i].free = free[ends[i]:ends[i]:ends[i+1]]
	}
	for _, g := range grants {
		d := &p.domains[p.index(g.Domain)]
		d.capacity += g.Size
		d.freeSum += g.Size
		// Insert sorted; grants from a single donor never overlap.
		idx := sort.Search(len(d.free), func(i int) bool { return d.free[i].start >= g.Start })
		d.free = slices.Insert(d.free, idx, freeRange{start: g.Start, size: g.Size})
	}
	// Coalesce adjacent grants in place.
	for i := range p.domains {
		d := &p.domains[i]
		out := d.free[:0]
		for _, f := range d.free {
			if n := len(out); n > 0 && out[n-1].start+out[n-1].size == f.start {
				out[n-1].size += f.size
				continue
			}
			out = append(out, f)
		}
		d.free = out
	}
	return p
}

// Node returns the hardware spec the allocator was built for.
func (p *Phys) Node() *hw.NodeSpec { return p.node }

// index returns the position of domain id in p.domains, or -1. Ids usually
// equal positions, which makes the common lookup a single comparison.
func (p *Phys) index(id int) int {
	if id >= 0 && id < len(p.domains) && p.domains[id].id == id {
		return id
	}
	for i := range p.domains {
		if p.domains[i].id == id {
			return i
		}
	}
	return -1
}

// lookup returns domain id's allocator, or nil for unknown ids.
func (p *Phys) lookup(id int) *physDomain {
	if i := p.index(id); i >= 0 {
		return &p.domains[i]
	}
	return nil
}

func (p *Phys) domain(id int) (*physDomain, error) {
	d := p.lookup(id)
	if d == nil {
		return nil, fmt.Errorf("mem: no NUMA domain %d", id)
	}
	return d, nil
}

// FreeBytes returns the total free bytes in a domain (0 for unknown ids).
func (p *Phys) FreeBytes(domain int) int64 {
	if d := p.lookup(domain); d != nil {
		return d.freeSum
	}
	return 0
}

// Capacity returns the domain capacity in bytes (0 for unknown ids).
func (p *Phys) Capacity(domain int) int64 {
	if d := p.lookup(domain); d != nil {
		return d.capacity
	}
	return 0
}

// UsedBytes returns allocated bytes in a domain.
func (p *Phys) UsedBytes(domain int) int64 {
	if d := p.lookup(domain); d != nil {
		return d.capacity - d.freeSum
	}
	return 0
}

// AppendFree appends the domain's free ranges, in address order, to dst
// and returns the extended slice (unchanged for unknown ids).
func (p *Phys) AppendFree(dst []Extent, domain int) []Extent {
	if d := p.lookup(domain); d != nil {
		for _, f := range d.free {
			dst = append(dst, Extent{Domain: domain, Start: f.start, Size: f.size})
		}
	}
	return dst
}

// LargestFree returns the size of the largest free contiguous range in the
// domain. Large-page eligibility depends on this, which is how early-boot
// reservation (mOS) beats late requests (McKernel) for 1 GiB pages.
func (p *Phys) LargestFree(domain int) int64 {
	d := p.lookup(domain)
	if d == nil {
		return 0
	}
	var max int64
	for _, f := range d.free {
		if f.size > max {
			max = f.size
		}
	}
	return max
}

// Alloc carves a contiguous extent of exactly size bytes, aligned to align,
// from the given domain using first fit. size must be positive and align a
// positive power of two.
func (p *Phys) Alloc(domain int, size, align int64) (Extent, error) {
	if size <= 0 {
		return Extent{}, fmt.Errorf("mem: Alloc of non-positive size %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return Extent{}, fmt.Errorf("mem: Alloc with bad alignment %d", align)
	}
	d, err := p.domain(domain)
	if err != nil {
		return Extent{}, err
	}
	for i, f := range d.free {
		start := (f.start + align - 1) &^ (align - 1)
		if f.size < start-f.start+size {
			continue
		}
		d.take(i, start, size)
		return Extent{Domain: domain, Start: start, Size: size}, nil
	}
	return Extent{}, fmt.Errorf("mem: domain %d cannot satisfy %d bytes contiguous (free %d, largest %d)",
		domain, size, d.freeSum, p.LargestFree(domain))
}

// AllocUpTo allocates as much of size as the domain can provide, possibly
// as multiple extents, each aligned to align and a multiple of align. It
// appends the extents to dst and returns the extended slice with the bytes
// obtained by this call (<= size). Used for best-effort spill allocation;
// callers that pass a reused buffer (dst[:0]) allocate nothing here.
func (p *Phys) AllocUpTo(dst []Extent, domain int, size, align int64) ([]Extent, int64) {
	var got int64
	for got < size {
		want := size - got
		// Try the largest aligned chunk that fits somewhere.
		chunk := p.largestAlignedChunk(domain, align)
		if chunk == 0 {
			break
		}
		if chunk > want {
			chunk = want &^ (align - 1)
			if chunk == 0 {
				break
			}
		}
		e, err := p.Alloc(domain, chunk, align)
		if err != nil {
			break
		}
		dst = append(dst, e)
		got += e.Size
	}
	return dst, got
}

// allocScratch is AllocUpTo into the node's reused extent buffer, so
// populating an address space allocates nothing here. The extents are
// valid until the next allocScratch call.
func (p *Phys) allocScratch(domain int, size, align int64) ([]Extent, int64) {
	var n int64
	p.scratch, n = p.AllocUpTo(p.scratch[:0], domain, size, align)
	return p.scratch, n
}

// largestAlignedChunk returns the largest multiple of align obtainable as a
// single extent from the domain.
func (p *Phys) largestAlignedChunk(domain int, align int64) int64 {
	d := p.lookup(domain)
	if d == nil {
		return 0
	}
	var best int64
	for _, f := range d.free {
		start := (f.start + align - 1) &^ (align - 1)
		avail := f.size - (start - f.start)
		if avail < align {
			continue
		}
		if c := avail &^ (align - 1); c > best {
			best = c
		}
	}
	return best
}

// Free returns an extent to its domain, coalescing adjacent free ranges.
// Freeing overlapping or never-allocated ranges panics: physical
// double-free is always a kernel-model bug.
func (p *Phys) Free(e Extent) {
	d, err := p.domain(e.Domain)
	if err != nil {
		panic(err)
	}
	if e.Size <= 0 || e.Start < 0 || e.End() > d.bound {
		panic(fmt.Sprintf("mem: Free of bad extent %+v", e))
	}
	idx := sort.Search(len(d.free), func(i int) bool { return d.free[i].start >= e.Start })
	// Overlap checks against neighbours.
	if idx > 0 && d.free[idx-1].start+d.free[idx-1].size > e.Start {
		panic(fmt.Sprintf("mem: double free of %+v", e))
	}
	if idx < len(d.free) && d.free[idx].start < e.End() {
		panic(fmt.Sprintf("mem: double free of %+v", e))
	}
	d.free = append(d.free, freeRange{})
	copy(d.free[idx+1:], d.free[idx:])
	d.free[idx] = freeRange{start: e.Start, size: e.Size}
	d.freeSum += e.Size
	// Coalesce with the right neighbour, then the left.
	if idx+1 < len(d.free) && d.free[idx].start+d.free[idx].size == d.free[idx+1].start {
		d.free[idx].size += d.free[idx+1].size
		d.free = append(d.free[:idx+1], d.free[idx+2:]...)
	}
	if idx > 0 && d.free[idx-1].start+d.free[idx-1].size == d.free[idx].start {
		d.free[idx-1].size += d.free[idx].size
		d.free = append(d.free[:idx], d.free[idx+1:]...)
	}
}

// FreeAll returns a batch of extents.
func (p *Phys) FreeAll(es []Extent) {
	for _, e := range es {
		p.Free(e)
	}
}

// Fragment artificially splits the domain's free space by pinning holes of
// holeSize every strideBytes, returning the pinned extents. It models
// unmovable Linux data structures landing in memory before a late-booting
// LWK (McKernel) can reserve it, which caps the contiguity available for
// 1 GiB pages (paper, section II-D5).
func (p *Phys) Fragment(domain int, holeSize, stride int64) ([]Extent, error) {
	if holeSize <= 0 || stride <= holeSize {
		return nil, fmt.Errorf("mem: Fragment with holeSize %d, stride %d", holeSize, stride)
	}
	d, err := p.domain(domain)
	if err != nil {
		return nil, err
	}
	// Every hole that lands in free space becomes one pin and splits at
	// most one free range in two, so size both lists for the full count.
	holes := int(d.bound / stride)
	pins := make([]Extent, 0, holes)
	d.free = slices.Grow(d.free, holes)
	for at := stride - holeSize; at+holeSize <= d.bound; at += stride {
		e, err := p.allocAt(domain, at, holeSize)
		if err != nil {
			continue // already-allocated region; skip
		}
		pins = append(pins, e)
	}
	return pins, nil
}

// allocAt allocates the specific range [start, start+size) if free.
func (p *Phys) allocAt(domain int, start, size int64) (Extent, error) {
	d, err := p.domain(domain)
	if err != nil {
		return Extent{}, err
	}
	for i, f := range d.free {
		if f.start <= start && start+size <= f.start+f.size {
			d.take(i, start, size)
			return Extent{Domain: domain, Start: start, Size: size}, nil
		}
	}
	return Extent{}, fmt.Errorf("mem: range [%d,%d) not free in domain %d", start, start+size, domain)
}

// take removes [start, start+size) from free range i, which must contain
// it, splitting the range in place into [pre][taken][post]. Only a split
// that leaves both a pre and a post remainder grows the list; every other
// case rewrites or drops entry i without allocating.
func (d *physDomain) take(i int, start, size int64) {
	f := d.free[i]
	pre := start - f.start
	post := f.start + f.size - (start + size)
	switch {
	case pre > 0 && post > 0:
		d.free[i].size = pre
		d.free = slices.Insert(d.free, i+1, freeRange{start: start + size, size: post})
	case pre > 0:
		d.free[i].size = pre
	case post > 0:
		d.free[i] = freeRange{start: start + size, size: post}
	default:
		d.free = slices.Delete(d.free, i, i+1)
	}
	d.freeSum -= size
}

// checkInvariants verifies the free list is sorted, coalesced, in-bounds
// and consistent with freeSum. Exposed to tests via export_test.go.
func (p *Phys) checkInvariants() error {
	for i := range p.domains {
		d := &p.domains[i]
		id := d.id
		var sum int64
		var prevEnd int64 = -1
		for i, f := range d.free {
			if f.size <= 0 {
				return fmt.Errorf("domain %d: empty free range at %d", id, i)
			}
			if f.start < 0 || f.start+f.size > d.bound {
				return fmt.Errorf("domain %d: free range out of bounds", id)
			}
			if prevEnd >= 0 && f.start <= prevEnd {
				return fmt.Errorf("domain %d: free list unsorted or uncoalesced at %d", id, i)
			}
			prevEnd = f.start + f.size
			sum += f.size
		}
		if sum != d.freeSum {
			return fmt.Errorf("domain %d: freeSum %d != computed %d", id, d.freeSum, sum)
		}
	}
	return nil
}
