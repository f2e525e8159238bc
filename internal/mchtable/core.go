package mchtable

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/stats"
)

// stashEntry is one overflowed pair plus the tag its candidates re-derive
// from.
type stashEntry[K comparable, V any] struct {
	key K
	val V
	tag uint64
}

// Core is the bucket/stash placement engine of the multiple-choice hash
// table: fixed-slot buckets, least-loaded placement over caller-supplied
// candidate buckets, and an overflow stash drained back into buckets as
// deletes free slots. It is hashing-agnostic — callers derive each key's
// candidate buckets themselves — and generic over the stored key and
// value types, so the single-threaded Table, the typed Map and the locked
// shards of internal/cmap all share one placement implementation.
//
// Every stored pair carries an opaque 64-bit tag from which the caller can
// re-derive the pair's candidate buckets without touching the key again:
// internal/cmap stores the in-shard SipHash digest (so candidates for a
// new geometry come from the same single hash evaluation, the paper's
// one-hash discipline), while the uint64 Table simply stores the key.
// Tags are what make online resize a pure re-placement: Migrate
// re-derives candidates for the doubled geometry from stored tags, never
// re-hashing user keys.
//
// A Core optionally resizes online: StartResize allocates a second Core
// with a different bucket count, Migrate moves entries across in small
// batches, and the *Dual operations keep every key reachable mid-migration
// by consulting the old geometry first and the new one second. When the
// old side empties, the new Core is promoted in place — the *Core pointer
// held by callers keeps working across the hand-off.
//
// The stash is insertion-ordered so that drain and migration order — and
// therefore placement — is fully deterministic for a fixed op sequence.
//
// Concurrent readers may share a Core, but every mutation needs exclusion
// from all other access (internal/cmap wraps each shard's core in an
// RWMutex).
type Core[K comparable, V any] struct {
	buckets        int
	slotsPerBucket int
	stashCap       int
	keys           []K
	vals           []V
	tags           []uint64
	used           []uint32 // 1 = occupied
	counts         []uint32 // occupied slots per bucket
	stash          []stashEntry[K, V]
	size           int

	// Resize state. next is the doubled-geometry table entries migrate
	// into; nil when no resize is in flight. It is atomic so a caller
	// can peek at Resizing without taking its lock (cmap's MigrateStep
	// skips idle shards that way). Buckets [0, cursor) of the old
	// geometry have been drained by Migrate. resizes counts completed
	// promotions (it survives promotion).
	next    atomic.Pointer[Core[K, V]]
	cursor  int
	resizes int
}

// NewCore returns an empty placement core. It panics on invalid shape.
func NewCore[K comparable, V any](buckets, slotsPerBucket, stashCap int) *Core[K, V] {
	if buckets <= 0 {
		panic(fmt.Sprintf("mchtable: Buckets = %d", buckets))
	}
	if slotsPerBucket <= 0 {
		panic(fmt.Sprintf("mchtable: SlotsPerBucket = %d", slotsPerBucket))
	}
	if stashCap < 0 {
		panic(fmt.Sprintf("mchtable: StashSize = %d", stashCap))
	}
	total := buckets * slotsPerBucket
	return &Core[K, V]{
		buckets:        buckets,
		slotsPerBucket: slotsPerBucket,
		stashCap:       stashCap,
		keys:           make([]K, total),
		vals:           make([]V, total),
		tags:           make([]uint64, total),
		used:           make([]uint32, total),
		counts:         make([]uint32, buckets),
	}
}

// Buckets returns the number of buckets in the current (old) geometry.
func (c *Core[K, V]) Buckets() int { return c.buckets }

// SlotsPerBucket returns the slots per bucket.
func (c *Core[K, V]) SlotsPerBucket() int { return c.slotsPerBucket }

// StashCap returns the overflow stash capacity.
func (c *Core[K, V]) StashCap() int { return c.stashCap }

// slot returns the flat index of bucket b, slot s.
func (c *Core[K, V]) slot(b, s int) int { return b*c.slotsPerBucket + s }

// findInBucket returns the slot of key in bucket b, or -1.
//
//repro:noalloc
func (c *Core[K, V]) findInBucket(key K, b int) int {
	for s := 0; s < c.slotsPerBucket; s++ {
		idx := c.slot(b, s)
		if c.used[idx] != 0 && c.keys[idx] == key {
			return idx
		}
	}
	return -1
}

// stashFind returns the stash index of key, or -1.
//
//repro:noalloc
func (c *Core[K, V]) stashFind(key K) int {
	for i, e := range c.stash {
		if e.key == key {
			return i
		}
	}
	return -1
}

// stashRemove deletes stash entry i, preserving the order of the rest so
// drains stay insertion-ordered (and deterministic).
//
//repro:noalloc
func (c *Core[K, V]) stashRemove(i int) {
	c.stash = slices.Delete(c.stash, i, i+1) // zeroes the vacated tail entry, releasing its pointers
}

// storeInBucket places the pair in a free slot of bucket b, which the
// caller has verified exists.
//
//repro:noalloc
func (c *Core[K, V]) storeInBucket(b int, key K, val V, tag uint64) {
	for s := 0; s < c.slotsPerBucket; s++ {
		idx := c.slot(b, s)
		if c.used[idx] == 0 {
			c.keys[idx] = key
			c.vals[idx] = val
			c.tags[idx] = tag
			c.used[idx] = 1
			c.counts[b]++
			return
		}
	}
	panic("mchtable: storeInBucket on a full bucket")
}

// Put stores key → val given key's candidate buckets, updating in place
// if key is present. tag is the opaque value candidates re-derive from
// (see the type comment); it is stored alongside the pair. Put reports
// whether the pair is stored; false means every candidate bucket and the
// stash were full (the insertion is rejected, core unchanged).
//
// Put addresses the current geometry only; while a resize is in flight
// callers must use PutDual instead.
//
//repro:noalloc
func (c *Core[K, V]) Put(cands []uint32, key K, val V, tag uint64) bool {
	return c.put(cands, key, val, tag, true)
}

// put is Put with the stash capacity check optional: growth migrations
// pass capped=false so forward progress never depends on stash headroom
// (see Migrate).
//
//repro:noalloc
func (c *Core[K, V]) put(cands []uint32, key K, val V, tag uint64, capped bool) bool {
	// Update in place, wherever the key already lives.
	for _, b := range cands {
		if idx := c.findInBucket(key, int(b)); idx >= 0 {
			c.vals[idx] = val
			return true
		}
	}
	if i := c.stashFind(key); i >= 0 {
		c.stash[i].val = val
		return true
	}
	// Place in the least-loaded candidate bucket, ties to the first —
	// exactly the balanced-allocation rule, via the engine's shared
	// selection.
	if best, count := engine.LeastLoadedFirst(c.counts, cands); int(count) < c.slotsPerBucket {
		c.storeInBucket(int(best), key, val, tag)
		c.size++
		return true
	}
	// All candidates full: stash.
	if !capped || len(c.stash) < c.stashCap {
		c.stash = append(c.stash, stashEntry[K, V]{key: key, val: val, tag: tag}) //repro:allocok growth path: the stash doubles by append, amortized over inserts
		c.size++
		return true
	}
	return false
}

// Get returns the value stored for key, given key's candidate buckets in
// the current geometry, with the probe depth at which it resolved: the
// index into cands of the bucket holding it, len(cands) for a stash hit,
// -1 on a miss. The depth is the paper's which-choice-held observation
// (internal/cmap's sampled probe-depth histogram). While a resize is in
// flight use GetDual.
//
//repro:noalloc
func (c *Core[K, V]) Get(cands []uint32, key K) (V, int, bool) {
	for depth, b := range cands {
		if idx := c.findInBucket(key, int(b)); idx >= 0 {
			return c.vals[idx], depth, true
		}
	}
	if i := c.stashFind(key); i >= 0 {
		return c.stash[i].val, len(cands), true
	}
	var zero V
	return zero, -1, false
}

// Delete removes key, reporting whether it was present. Freeing a bucket
// slot triggers a stash drain: any stashed entry with that bucket among
// its candidates (re-derived from its stored tag through candsOf) moves
// back into the table, so transient overflow does not pin stash capacity
// forever. cands must not alias the buffer candsOf writes into — the
// drain recomputes stashed entries' candidates while cands is still live.
// While a resize is in flight use DeleteDual.
//
//repro:noalloc
func (c *Core[K, V]) Delete(cands []uint32, key K, candsOf func(tag uint64) []uint32) bool {
	for _, b := range cands {
		if idx := c.findInBucket(key, int(b)); idx >= 0 {
			c.clearSlot(idx, int(b))
			c.drainStashInto(int(b), candsOf)
			return true
		}
	}
	if i := c.stashFind(key); i >= 0 {
		c.stashRemove(i)
		c.size--
		return true
	}
	return false
}

// clearSlot frees flat slot idx of bucket b, zeroing the stored pair so
// no dead key or value (which may hold pointers for generic K/V) stays
// reachable.
//
//repro:noalloc
func (c *Core[K, V]) clearSlot(idx, b int) {
	var zeroK K
	var zeroV V
	c.used[idx] = 0
	c.keys[idx] = zeroK
	c.vals[idx] = zeroV
	c.counts[b]--
	c.size--
}

// drainStashInto moves the first stashed entry (insertion order) whose
// candidate set covers bucket b into b, if b has a free slot.
//
//repro:noalloc
func (c *Core[K, V]) drainStashInto(b int, candsOf func(tag uint64) []uint32) {
	if int(c.counts[b]) >= c.slotsPerBucket {
		return
	}
	for i, e := range c.stash {
		for _, cb := range candsOf(e.tag) {
			if int(cb) != b {
				continue
			}
			c.storeInBucket(b, e.key, e.val, e.tag)
			c.stashRemove(i)
			return
		}
	}
}

// StartResize begins an online resize to newBuckets buckets (same slots
// per bucket and stash capacity): it allocates the new-geometry Core that
// Migrate drains entries into. It panics if a resize is already in flight
// or the shape is invalid. Until the resize completes, all operations must
// go through the *Dual variants with candidates for both geometries.
func (c *Core[K, V]) StartResize(newBuckets int) {
	if c.next.Load() != nil {
		panic("mchtable: StartResize during an in-flight resize")
	}
	if newBuckets <= 0 || newBuckets == c.buckets {
		panic(fmt.Sprintf("mchtable: resize %d -> %d buckets", c.buckets, newBuckets))
	}
	c.cursor = 0
	c.next.Store(NewCore[K, V](newBuckets, c.slotsPerBucket, c.stashCap))
}

// Resizing reports whether a resize is in flight.
func (c *Core[K, V]) Resizing() bool { return c.next.Load() != nil }

// Pending returns the number of entries still stored in the old geometry
// of an in-flight resize (0 when not resizing) — the migration backlog.
func (c *Core[K, V]) Pending() int {
	if c.next.Load() == nil {
		return 0
	}
	return c.size
}

// Resizes returns the number of completed resizes.
func (c *Core[K, V]) Resizes() int { return c.resizes }

// Migrate performs up to n units of migration work — moving an entry
// from the old geometry into the new one, or sweeping past an empty old
// bucket — deriving each entry's new-geometry candidates from its stored
// tag via candsOf. Sweeps count against the budget so the caller's
// lock-hold time per call stays O(n) even on a sparse shard whose resize
// was armed by stash pressure. It returns the work performed; 0 means
// there is nothing left to do or the new geometry rejected an entry.
//
// A growth migration (more buckets) always makes progress: an entry whose
// new-geometry candidates are all full goes to the new stash even past
// its capacity, so a resize can never wedge behind one unplaceable entry
// while chained doublings are blocked — the overflow is temporary, since
// the promoted geometry's stash pressure immediately re-arms the next
// doubling, which re-places it. A shrink migration keeps the stash cap:
// if the smaller geometry cannot hold the backlog, Migrate reports no
// progress and every entry stays reachable in the old geometry rather
// than being lost.
//
// When the old geometry empties, the new Core is promoted in place and
// Resizing becomes false; the receiver pointer remains valid throughout.
//
//repro:digestcarried
//repro:noalloc
func (c *Core[K, V]) Migrate(n int, candsOf func(tag uint64) []uint32) int {
	next := c.next.Load()
	if next == nil {
		return 0
	}
	capped := next.buckets < c.buckets // only shrinks may stall
	work := 0
	for work < n && c.size > 0 {
		if c.cursor < c.buckets {
			b := c.cursor
			if c.counts[b] == 0 {
				c.cursor++
				work++
				continue
			}
			idx := -1
			for s := 0; s < c.slotsPerBucket; s++ {
				if i := c.slot(b, s); c.used[i] != 0 {
					idx = i
					break
				}
			}
			if !next.put(candsOf(c.tags[idx]), c.keys[idx], c.vals[idx], c.tags[idx], capped) {
				return work
			}
			c.clearSlot(idx, b)
			work++
			continue
		}
		// Buckets drained; move the stash back to front — deterministic
		// and O(1) per entry, where consuming the front would memmove the
		// remainder every step (quadratic on the oversized stashes a
		// saturated growth migration builds).
		e := c.stash[len(c.stash)-1]
		if !next.put(candsOf(e.tag), e.key, e.val, e.tag, capped) {
			return work
		}
		c.stashRemove(len(c.stash) - 1)
		c.size--
		work++
	}
	if c.size == 0 {
		c.promote()
	}
	return work
}

// promote replaces the receiver's contents with the fully migrated
// new-geometry Core, ending the resize. Callers' *Core pointers survive.
// The adoption is field by field because next must not be struct-copied;
// slotsPerBucket and stashCap are invariant across a resize.
func (c *Core[K, V]) promote() {
	next := c.next.Load()
	c.buckets = next.buckets
	c.keys, c.vals, c.tags = next.keys, next.vals, next.tags
	c.used, c.counts = next.used, next.counts
	c.stash = next.stash
	c.size = next.size
	c.cursor = 0
	c.resizes++
	c.next.Store(nil)
}

// GetDual is Get while a resize is in flight: the old geometry (oldCands)
// is consulted first, then the new one (newCands), so no key is ever
// unreachable mid-migration. New-geometry depths are offset past the old
// probe sequence (len(oldCands)+1), so a depth counts the buckets
// examined. With no resize in flight it is plain Get.
//
//repro:noalloc
func (c *Core[K, V]) GetDual(oldCands, newCands []uint32, key K) (V, int, bool) {
	if v, depth, ok := c.Get(oldCands, key); ok {
		return v, depth, true
	}
	if next := c.next.Load(); next != nil {
		if v, depth, ok := next.Get(newCands, key); ok {
			return v, len(oldCands) + 1 + depth, true
		}
	}
	var zero V
	return zero, -1, false
}

// PutDual is Put while a resize is in flight. A key still resident in the
// old geometry is moved to the new one (insertion piggybacks migration);
// otherwise the pair goes to the new geometry directly. If the new
// geometry rejects the pair (all candidates and its stash full — rare,
// since resizes grow the table) a resident key is updated in place in the
// old geometry and a new key is rejected. It panics without a resize in
// flight.
//
//repro:noalloc
func (c *Core[K, V]) PutDual(oldCands, newCands []uint32, key K, val V, tag uint64) bool {
	next := c.next.Load()
	if next == nil {
		panic("mchtable: PutDual without a resize in flight")
	}
	for _, b := range oldCands {
		if idx := c.findInBucket(key, int(b)); idx >= 0 {
			if next.Put(newCands, key, val, tag) {
				c.clearSlot(idx, int(b))
				return true
			}
			c.vals[idx] = val
			return true
		}
	}
	if i := c.stashFind(key); i >= 0 {
		if next.Put(newCands, key, val, tag) {
			c.stashRemove(i)
			c.size--
			return true
		}
		c.stash[i].val = val
		return true
	}
	return next.Put(newCands, key, val, tag)
}

// DeleteDual is Delete while a resize is in flight: the key is removed
// from whichever geometry holds it. Old-geometry deletions skip the stash
// drain — stashed entries are on their way to the new geometry anyway —
// while new-geometry deletions drain the new stash through newCandsOf. It
// panics without a resize in flight.
//
//repro:noalloc
func (c *Core[K, V]) DeleteDual(oldCands, newCands []uint32, key K, newCandsOf func(tag uint64) []uint32) bool {
	next := c.next.Load()
	if next == nil {
		panic("mchtable: DeleteDual without a resize in flight")
	}
	for _, b := range oldCands {
		if idx := c.findInBucket(key, int(b)); idx >= 0 {
			c.clearSlot(idx, int(b))
			return true
		}
	}
	if i := c.stashFind(key); i >= 0 {
		c.stashRemove(i)
		c.size--
		return true
	}
	return next.Delete(newCands, key, newCandsOf)
}

// Len returns the number of stored pairs (including stashed ones and, mid-
// resize, pairs already migrated to the new geometry).
func (c *Core[K, V]) Len() int {
	n := c.size
	if next := c.next.Load(); next != nil {
		n += next.size
	}
	return n
}

// StashLen returns the number of stashed pairs — the overflow count —
// across both geometries mid-resize.
func (c *Core[K, V]) StashLen() int {
	n := len(c.stash)
	if next := c.next.Load(); next != nil {
		n += len(next.stash)
	}
	return n
}

// Capacity returns the total slot capacity (excluding the stash). While a
// resize is in flight both geometries' slots exist, and both count.
func (c *Core[K, V]) Capacity() int {
	n := c.buckets * c.slotsPerBucket
	if next := c.next.Load(); next != nil {
		n += next.buckets * next.slotsPerBucket
	}
	return n
}

// Occupancy returns stored pairs divided by total slot capacity.
func (c *Core[K, V]) Occupancy() float64 {
	return float64(c.Len()) / float64(c.Capacity())
}

// Range calls fn for every stored pair with its tag until fn returns
// false, reporting whether the iteration ran to completion. The order is
// deterministic for a fixed core state: buckets in index order (slots in
// order within each), then the stash in insertion order; while a resize
// is in flight the old geometry streams first, then the new one. Every
// pair is visited exactly once — mid-migration an entry lives in exactly
// one geometry — which is what makes Range the snapshot iterator: a
// persisted section is just Range's (key, val, tag) stream.
//
// fn must not mutate the core.
func (c *Core[K, V]) Range(fn func(key K, val V, tag uint64) bool) bool {
	for idx, used := range c.used {
		if used != 0 && !fn(c.keys[idx], c.vals[idx], c.tags[idx]) {
			return false
		}
	}
	for _, e := range c.stash {
		if !fn(e.key, e.val, e.tag) {
			return false
		}
	}
	if next := c.next.Load(); next != nil {
		return next.Range(fn)
	}
	return true
}

// AddBucketLoads folds the per-bucket occupancy counts into h — the
// quantity the paper's load tables predict. internal/cmap aggregates its
// shards' histograms through this. Mid-resize, both geometries' buckets
// contribute.
func (c *Core[K, V]) AddBucketLoads(h *stats.Hist) {
	for _, n := range c.counts {
		h.Add(int(n))
	}
	if next := c.next.Load(); next != nil {
		next.AddBucketLoads(h)
	}
}
