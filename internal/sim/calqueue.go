package sim

import "math"

// calQueue is a calendar queue (Brown 1988): the engine's pending-event set
// bucketed by timestamp so that push and pop are O(1) amortized instead of
// the binary heap's O(log n). Each bucket is a "day" of `width` nanoseconds;
// the buckets wrap around like a calendar, so bucket i holds every event
// whose timestamp falls in day i of *any* year. Pop scans days forward from
// the last popped timestamp; because simulations schedule most events a
// short, similar distance into the future, the next event is almost always
// within the first day or two of the scan.
//
// Ordering contract (identical to the heap it replaced): events pop in
// (at, seq) order — strictly by timestamp, FIFO by insertion seq within a
// timestamp. Same-timestamp events always land in the same bucket, where
// they are kept sorted by seq, so the FIFO tie-break is structural rather
// than incidental.
//
// Invariant: q.last <= the timestamp of every queued event. The engine
// normally guarantees this (At panics on past timestamps and last tracks
// popped events), but peek advances last to the minimum it found, and a
// subsequent RunUntil deadline can rewind the engine clock below it — so
// push restores the invariant by lowering last when it sees an earlier
// timestamp. Lowering last is always safe: the scan merely starts earlier.
type calQueue struct {
	buckets []calBucket
	mask    int    // len(buckets)-1; bucket count is a power of two
	width   uint64 // bucket width in virtual nanoseconds, >= 1
	size    int    // queued entries
	last    Time   // scan floor: no queued entry is earlier
	// spare is resize's gather buffer, kept between resizes so that a
	// burst that grows the calendar and the drain that shrinks it again
	// allocate nothing once the queue has seen its peak size.
	spare []calEntry
}

// calEntry is one scheduled wake-up, stored by value: either a process to
// dispatch (proc) or a closure to run (fn), never both. Process wakes — the
// steady-state traffic of Sleep, Signal and Mailbox — carry no heap object
// of their own.
type calEntry struct {
	at   Time
	seq  uint64 // tiebreaker: insertion order
	proc *Proc
	fn   func()
}

// before reports whether e orders strictly before o by (at, seq).
func (e *calEntry) before(o *calEntry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// calBucket is one calendar day: entries sorted by (at, seq). Popping
// advances head (zeroing the slot so nothing it referenced is retained); the
// slice is reset once drained so its capacity is reused.
type calBucket struct {
	evs  []calEntry
	head int
}

// calMinBuckets is the smallest bucket count; resizing never shrinks below
// it.
const calMinBuckets = 8

func (q *calQueue) init() {
	q.buckets = make([]calBucket, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.width = 1
	q.size = 0
	q.last = 0
}

// bucketFor maps a timestamp to its calendar day.
func (q *calQueue) bucketFor(t Time) int {
	return int((uint64(t) / q.width)) & q.mask
}

// push inserts e, keeping its bucket sorted by (at, seq). Because seq is
// monotone, an entry scheduled later than everything in its bucket — the
// common case — is a plain append.
func (q *calQueue) push(e calEntry) {
	if q.size == 0 || e.at < q.last {
		q.last = e.at
	}
	q.insert(e)
	q.size++
	if q.size > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

func (q *calQueue) insert(e calEntry) {
	b := &q.buckets[q.bucketFor(e.at)]
	b.evs = append(b.evs, e)
	i := len(b.evs) - 1
	for i > b.head && !b.evs[i-1].before(&e) {
		b.evs[i] = b.evs[i-1]
		i--
	}
	b.evs[i] = e
}

// front returns the bucket whose head is the minimum queued entry by
// (at, seq), or nil when the queue is empty. It tightens q.last to that
// entry's timestamp so the following pop (and the next front) find it in
// the first bucket scanned.
func (q *calQueue) front() *calBucket {
	if q.size == 0 {
		return nil
	}
	start := int(uint64(q.last)/q.width) & q.mask
	// top is the exclusive end of the current scan day, saturating so
	// timestamps near Never cannot overflow the comparison.
	top := (uint64(q.last)/q.width + 1) * q.width
	for i := 0; i <= q.mask; i++ {
		b := &q.buckets[(start+i)&q.mask]
		if b.head < len(b.evs) {
			if at := b.evs[b.head].at; uint64(at) < top {
				q.last = at
				return b
			}
		}
		next := top + q.width
		if next < top {
			next = math.MaxUint64
		}
		top = next
	}
	// Full lap without a hit: the next entry is more than a full calendar
	// year away. Fall back to a direct minimum over the bucket heads.
	var min *calBucket
	for bi := range q.buckets {
		b := &q.buckets[bi]
		if b.head >= len(b.evs) {
			continue
		}
		if min == nil || b.evs[b.head].before(&min.evs[min.head]) {
			min = b
		}
	}
	q.last = min.evs[min.head].at
	return min
}

// peek returns the timestamp of the minimum queued entry; ok is false when
// the queue is empty.
func (q *calQueue) peek() (at Time, ok bool) {
	b := q.front()
	if b == nil {
		return 0, false
	}
	return b.evs[b.head].at, true
}

// pop removes and returns the minimum queued entry; ok is false when the
// queue is empty.
func (q *calQueue) pop() (e calEntry, ok bool) {
	b := q.front()
	if b == nil {
		return calEntry{}, false
	}
	e = b.evs[b.head]
	b.evs[b.head] = calEntry{}
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
	}
	q.size--
	if q.size < len(q.buckets)/2 && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return e, true
}

// resize rebuilds the calendar with nbuckets buckets and a width recalibrated
// to the average inter-entry gap, so a year (nbuckets x width) spans the
// queued entries and the pop scan touches O(1) buckets per entry. Storage is
// recycled: the bucket array is resliced when it has the capacity (and the
// buckets past its length keep their emptied backing arrays for the next
// growth), and each bucket keeps its slice's capacity. Only the layout
// changes; pop order is fixed by (at, seq) alone.
func (q *calQueue) resize(nbuckets int) {
	all := q.spare[:0]
	minAt, maxAt := Never, Time(0)
	for bi := range q.buckets {
		b := &q.buckets[bi]
		for _, e := range b.evs[b.head:] {
			all = append(all, e)
			if e.at < minAt {
				minAt = e.at
			}
			if e.at > maxAt {
				maxAt = e.at
			}
		}
		clear(b.evs)
		b.evs = b.evs[:0]
		b.head = 0
	}
	width := uint64(1)
	if n := len(all); n > 1 && maxAt > minAt {
		if w := uint64(maxAt-minAt) / uint64(n); w > width {
			width = w
		}
	}
	if nbuckets <= cap(q.buckets) {
		q.buckets = q.buckets[:nbuckets]
	} else {
		grown := make([]calBucket, nbuckets)
		copy(grown, q.buckets[:cap(q.buckets)])
		q.buckets = grown
	}
	q.mask = nbuckets - 1
	q.width = width
	for _, e := range all {
		q.insert(e)
	}
	clear(all)
	q.spare = all[:0]
}

// clear discards every entry, zeroing the stored slots so the backing
// arrays retain no closure or Proc references.
func (q *calQueue) clear() {
	for bi := range q.buckets {
		b := &q.buckets[bi]
		clear(b.evs)
		b.evs = b.evs[:0]
		b.head = 0
	}
	q.size = 0
}
