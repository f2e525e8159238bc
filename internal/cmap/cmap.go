// Package cmap is a concurrency-safe, sharded multiple-choice hash map —
// the production-shaped version of internal/mchtable for many
// goroutines — generic over key and value types.
//
// Every key is hashed once through a keyed.Hasher (SipHash-2-4); the
// digest's high bits route the key to one of 2^k shards and the remaining
// bits derive the paper's (f, g) pair inside the shard
// (hashes.ShardSplit), so the whole map keeps the one-hash double-hashing
// discipline: one keyed hash evaluation yields the shard and all d
// candidate buckets. Each shard is an independent mchtable.Core — fixed-
// slot buckets, least-loaded placement over the d double-hashed
// candidates, an overflow stash drained as deletes free slots — guarded
// by its own RWMutex. Within a shard, bucket occupancy follows the
// balanced-allocation load distribution of the paper (the equivalence
// holds at every table size, per Mitzenmacher–Thaler's follow-up
// analysis), so stash overflow can be provisioned from the paper's tables
// exactly as in the single-threaded table.
//
// Reads (Get, GetBatch, Len, Stats, Range) take the shard's read lock, so
// they run in parallel with each other and wait only for a writer on the
// same shard; writes (Put, Delete, migration steps) take its write lock.
//
// # Online incremental resize
//
// With MaxLoadFactor set, a shard whose occupancy crosses the watermark
// (or whose stash comes under pressure) allocates a doubled-bucket-count
// core and migrates entries over in MigrateBatch-sized steps piggybacked
// on subsequent Put and Delete calls (or driven externally through
// MigrateStep). Each entry's in-shard digest is stored alongside it, so
// migration re-derives candidates for the doubled geometry from the same
// single hash evaluation — resize is a pure re-placement, no key is
// ever re-hashed, and the one-hash discipline survives every doubling
// (double hashing behaves fully-random at any table shape, per the
// follow-up analysis). Mid-migration, reads consult the old geometry
// first and the new one second, so no key is ever unreachable; writes land
// in the new geometry, moving a still-old-resident key across as a free
// migration step. Shards resize independently: one shard's migration
// never blocks another shard's traffic, and a Get never performs
// migration work, though it can wait behind one step, bounded by
// MigrateBatch.
//
// The keyed hash evaluation always happens outside the shard lock; the
// cheap geometry-dependent candidate expansion happens under it, because
// a doubling may change the shard's bucket count at any write.
package cmap

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/container"
	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/mchtable"
)

// maxD bounds the candidate count so per-call candidate sets fit in a
// stack array (no allocation, no shared scratch).
const maxD = 16

// Config declares a sharded map.
type Config struct {
	Shards          int    // shard count, rounded up to a power of two; 0 means 16
	BucketsPerShard int    // initial buckets per shard (required, > 0)
	SlotsPerBucket  int    // slots per bucket (required, > 0)
	D               int    // candidate buckets per key (required, 0 < D <= 16)
	Seed            uint64 // hash key material
	StashPerShard   int    // per-shard overflow stash capacity; 0 means 32

	// MaxLoadFactor enables online resize: a shard whose occupancy
	// (stored pairs, stash included, over slot capacity) exceeds this
	// watermark doubles its bucket count and migrates incrementally. 0
	// disables resize (the map is fixed-capacity and rejects overflow,
	// the pre-resize behaviour); otherwise it must lie in (0, 1].
	MaxLoadFactor float64
	// MigrateBatch is the number of entries each Put or Delete migrates
	// as a piggybacked resize step; 0 means 32 when resize is enabled.
	MigrateBatch int
}

// shard is one lockable placement core plus its geometry. deriver
// matches the core's current bucket count, nextDeriver the doubled
// geometry while a resize is in flight; both are guarded by mu. The
// trailing pad keeps adjacent shards' hot words off one cache line, so
// uncontended shards do not false-share.
type shard[K comparable, V any] struct {
	//repro:lockclass cmap-shard 30
	mu          sync.RWMutex
	core        *mchtable.Core[K, V] // set once at construction; the pointer itself never changes
	deriver     *hashes.Deriver
	nextDeriver *hashes.Deriver
	candsOf     func(tag uint64) []uint32 // current-geometry drain derivation
	newCandsOf  func(tag uint64) []uint32 // new-geometry drain/migrate derivation
	scratch     []uint32                  // candsOf target; guarded by mu (write side)
	newScratch  []uint32                  // newCandsOf target; guarded by mu (write side)

	_ [64]byte
}

// Map is the sharded multiple-choice hash map from K keys to V values.
// It is safe for concurrent use by multiple goroutines.
type Map[K comparable, V any] struct {
	shardBits    int
	d            int
	sipKey       hashes.SipKey
	seed         uint64 // sipKey's seed material, recorded in snapshot headers
	hash         keyed.Hasher[K]
	maxLoad      float64
	migrateBatch int
	metrics      *Metrics // optional latency/probe instrumentation; nil = uninstrumented
	shards       []shard[K, V]
}

// New returns an empty uint64 → uint64 map hashed with the canonical
// little-endian uint64 hasher — the library's historical key shape,
// byte-identical digests included. It panics on invalid configuration.
func New(cfg Config) *Map[uint64, uint64] {
	return NewKeyed[uint64, uint64](keyed.Uint64, cfg)
}

// NewKeyed returns an empty typed map whose single keyed hash evaluation
// per operation is h. It panics on invalid configuration or a nil hasher.
func NewKeyed[K comparable, V any](h keyed.Hasher[K], cfg Config) *Map[K, V] {
	if h == nil {
		panic("cmap: nil hasher")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 16
	}
	if cfg.Shards < 0 {
		panic(fmt.Sprintf("cmap: Shards = %d", cfg.Shards))
	}
	shards := 1 << uint(bits.Len(uint(cfg.Shards-1))) // round up to a power of two
	shardBits := bits.TrailingZeros(uint(shards))
	if shardBits > 32 {
		panic(fmt.Sprintf("cmap: Shards = %d exceeds 2^32", cfg.Shards))
	}
	if cfg.D <= 0 || cfg.D > maxD {
		panic(fmt.Sprintf("cmap: D = %d outside (0, %d]", cfg.D, maxD))
	}
	if cfg.D > 1 && cfg.D >= cfg.BucketsPerShard {
		panic(fmt.Sprintf("cmap: D = %d with %d buckets per shard", cfg.D, cfg.BucketsPerShard))
	}
	if cfg.StashPerShard == 0 {
		cfg.StashPerShard = 32
	}
	if cfg.MaxLoadFactor < 0 || cfg.MaxLoadFactor > 1 {
		panic(fmt.Sprintf("cmap: MaxLoadFactor = %v outside [0, 1]", cfg.MaxLoadFactor))
	}
	if cfg.MigrateBatch < 0 {
		panic(fmt.Sprintf("cmap: MigrateBatch = %d", cfg.MigrateBatch))
	}
	if cfg.MigrateBatch == 0 {
		cfg.MigrateBatch = 32
	}
	m := &Map[K, V]{
		shardBits:    shardBits,
		d:            cfg.D,
		sipKey:       hashes.SipKeyFromSeed(cfg.Seed),
		seed:         cfg.Seed,
		hash:         h,
		maxLoad:      cfg.MaxLoadFactor,
		migrateBatch: cfg.MigrateBatch,
		shards:       make([]shard[K, V], shards),
	}
	deriver := hashes.NewDeriver(cfg.BucketsPerShard) // shared until a shard resizes
	for i := range m.shards {
		sh := &m.shards[i]
		sh.core = mchtable.NewCore[K, V](cfg.BucketsPerShard, cfg.SlotsPerBucket, cfg.StashPerShard)
		sh.deriver = deriver
		sh.scratch = make([]uint32, cfg.D)
		sh.newScratch = make([]uint32, cfg.D)
		sh.candsOf = func(tag uint64) []uint32 {
			sh.deriver.CandidateBins(tag, sh.scratch)
			return sh.scratch
		}
		sh.newCandsOf = func(tag uint64) []uint32 {
			sh.nextDeriver.CandidateBins(tag, sh.newScratch)
			return sh.newScratch
		}
	}
	return m
}

// digest is the map's single keyed hash evaluation per key.
//
//repro:digestsource
//repro:noalloc
func (m *Map[K, V]) digest(key K) uint64 { return m.hash(m.sipKey, key) }

// route returns the key's shard and in-shard digest — everything derived
// from one keyed hash evaluation, without touching any lock. The in-shard
// digest is also the entry's stored tag: candidate buckets for any
// geometry derive from it.
//
//repro:noalloc
func (m *Map[K, V]) route(key K) (*shard[K, V], uint64) {
	return m.routeDigest(m.digest(key))
}

// routeDigest is route from an already computed full digest — the entry
// point the snapshot loader shares with the hashed path, so reloading at
// any shard count re-splits stored digests instead of re-hashing keys.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) routeDigest(digest uint64) (*shard[K, V], uint64) {
	idx, inShard := hashes.ShardSplit(digest, m.shardBits)
	return &m.shards[idx], inShard
}

// startResizeLocked begins doubling sh. Caller holds sh.mu.
//
//repro:requires-lock cmap-shard
func (m *Map[K, V]) startResizeLocked(sh *shard[K, V]) {
	newBuckets := 2 * sh.core.Buckets()
	sh.nextDeriver = hashes.NewDeriver(newBuckets)
	sh.core.StartResize(newBuckets)
}

// wantsResizeLocked reports whether sh has crossed the growth watermark:
// occupancy past MaxLoadFactor, or the overflow stash three-quarters
// full (stash pressure precedes rejections well below the watermark on
// unlucky shards). Caller holds sh.mu and has checked that resize is
// enabled and not already in flight.
//
//repro:requires-lock cmap-shard
func (m *Map[K, V]) wantsResizeLocked(sh *shard[K, V]) bool {
	if sh.core.Occupancy() > m.maxLoad {
		return true
	}
	return 4*sh.core.StashLen() >= 3*sh.core.StashCap()
}

// migrateLocked advances sh's in-flight resize by up to n units of
// migration work (entries moved or empty old buckets swept — the bound
// keeps the lock-hold O(n)), promoting the new geometry when the backlog
// empties. Caller holds sh.mu. Returns the work performed.
//
//repro:requires-lock cmap-shard
//repro:digestcarried
func (m *Map[K, V]) migrateLocked(sh *shard[K, V], n int) int {
	if !sh.core.Resizing() {
		return 0
	}
	moved := sh.core.Migrate(n, sh.newCandsOf)
	if !sh.core.Resizing() { // promoted: the doubled geometry is current
		sh.deriver, sh.nextDeriver = sh.nextDeriver, nil
	}
	return moved
}

// Put stores key → val, updating in place if key is present. It reports
// whether the pair is stored; false means the insertion was rejected with
// the map unchanged. With resize disabled that happens whenever every
// candidate bucket and the shard's stash are full; with MaxLoadFactor set
// a rejection instead starts the shard's resize and retries into the
// doubled geometry, so false becomes rare but remains possible while a
// migration is already in flight and the new geometry's candidates and
// stash are themselves full (a second doubling cannot start until the
// first completes). Every Put on a resizing shard migrates up to
// MigrateBatch entries.
//
//repro:noalloc
func (m *Map[K, V]) Put(key K, val V) bool {
	digest := m.digest(key)
	mx := m.metrics
	timed := mx != nil && sampled(digest)
	var start int64
	if timed {
		start = nowNanos()
	}
	ok := m.putDigest(digest, key, val)
	if timed {
		mx.PutNanos.Record(nowNanos() - start)
	}
	return ok
}

// putDigest is Put from an already computed full digest — shared by Put
// (which spends the operation's one keyed hash evaluation to get it) and
// the snapshot loader (which streams stored digests back in, re-hashing
// nothing).
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) putDigest(digest uint64, key K, val V) bool {
	var oldBuf, newBuf [maxD]uint32
	sh, tag := m.routeDigest(digest)
	oldCands := oldBuf[:m.d]
	sh.mu.Lock()
	sh.deriver.CandidateBins(tag, oldCands)
	var ok bool
	if sh.core.Resizing() {
		newCands := newBuf[:m.d]
		sh.nextDeriver.CandidateBins(tag, newCands)
		ok = sh.core.PutDual(oldCands, newCands, key, val, tag)
	} else {
		ok = sh.core.Put(oldCands, key, val, tag)
		// Grow when the watermark is crossed, or when the geometry
		// rejected the pair outright, regardless of occupancy. With
		// resize disabled the map is fixed-capacity: a rejection stands.
		if m.maxLoad > 0 && (!ok || m.wantsResizeLocked(sh)) {
			m.startResizeLocked(sh)
			if !ok {
				newCands := newBuf[:m.d]
				sh.nextDeriver.CandidateBins(tag, newCands)
				ok = sh.core.PutDual(oldCands, newCands, key, val, tag)
			}
		}
	}
	m.migrateLocked(sh, m.migrateBatch)
	sh.mu.Unlock()
	return ok
}

// Get returns the value stored for key. It takes the shard's read lock
// and never migrates.
//
//repro:noalloc
func (m *Map[K, V]) Get(key K) (V, bool) {
	digest := m.digest(key)
	sh, tag := m.routeDigest(digest)
	mx := m.metrics
	timed := mx != nil && sampled(digest)
	var start int64
	if timed {
		start = nowNanos()
	}
	v, depth, ok := m.lockedGet(sh, tag, key)
	if timed {
		mx.GetNanos.Record(nowNanos() - start)
		if ok {
			mx.ProbeDepth.Record(int64(depth))
		}
	}
	return v, ok
}

// lockedGet is Get from an already routed key: the probe under the
// shard's read lock, shared by Get and GetBatch. depth is the probe
// depth the core reports (see mchtable.Core.GetDual).
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) lockedGet(sh *shard[K, V], tag uint64, key K) (v V, depth int, ok bool) {
	var oldBuf, newBuf [maxD]uint32
	oldCands := oldBuf[:m.d]
	sh.mu.RLock()
	sh.deriver.CandidateBins(tag, oldCands)
	if sh.core.Resizing() {
		newCands := newBuf[:m.d]
		sh.nextDeriver.CandidateBins(tag, newCands)
		v, depth, ok = sh.core.GetDual(oldCands, newCands, key)
	} else {
		v, depth, ok = sh.core.Get(oldCands, key)
	}
	sh.mu.RUnlock()
	return v, depth, ok
}

// Delete removes key, reporting whether it was present. Freeing a bucket
// slot drains the shard's stash back into the freed bucket, as in the
// single-threaded table. Like Put, a Delete migrates up to MigrateBatch
// entries of an in-flight resize.
//
//repro:noalloc
func (m *Map[K, V]) Delete(key K) bool {
	var oldBuf, newBuf [maxD]uint32
	sh, tag := m.route(key)
	oldCands := oldBuf[:m.d]
	sh.mu.Lock()
	sh.deriver.CandidateBins(tag, oldCands)
	var ok bool
	if sh.core.Resizing() {
		newCands := newBuf[:m.d]
		sh.nextDeriver.CandidateBins(tag, newCands)
		ok = sh.core.DeleteDual(oldCands, newCands, key, sh.newCandsOf)
	} else {
		ok = sh.core.Delete(oldCands, key, sh.candsOf)
	}
	m.migrateLocked(sh, m.migrateBatch)
	sh.mu.Unlock()
	return ok
}

// MigrateStep advances every shard's in-flight resize by up to n units
// of migration work per shard (entries moved or empty old buckets swept),
// returning the total work performed (0 when no shard has anything left
// to migrate). Piggybacked migration on Put and Delete already drives
// resizes to completion under write traffic; MigrateStep is for a
// background drainer (see cmd/loadgen) or for finishing a migration on a
// now-idle map.
func (m *Map[K, V]) MigrateStep(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("cmap: MigrateStep n = %d", n))
	}
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		// Peek with an atomic load so idle shards cost nothing; a resize
		// finishing between the peek and the lock just makes migrateLocked
		// a no-op.
		if !sh.core.Resizing() {
			continue
		}
		sh.mu.Lock()
		total += m.migrateLocked(sh, n)
		sh.mu.Unlock()
	}
	return total
}

// Shards returns the shard count (a power of two).
func (m *Map[K, V]) Shards() int { return len(m.shards) }

// D returns the number of candidate buckets per key.
func (m *Map[K, V]) D() int { return m.d }

// Len returns the number of stored pairs (including stashed ones). Each
// shard's count is read under its read lock, so per-shard counts are
// exact while the cross-shard total is not one instant: concurrent
// writers may move the total while it accumulates.
func (m *Map[K, V]) Len() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		total += sh.core.Len()
		sh.mu.RUnlock()
	}
	return total
}

// Stats is the common occupancy/overflow snapshot aggregated across
// shards — the monitoring view: overall fill, stash pressure, shard skew,
// resize progress, and the bucket-load histogram the paper's tables
// predict. It is an alias of the shared container.Stats, so every
// container family in the library reports through one type.
type Stats = container.Stats

// Stats gathers the snapshot. Each shard's figures — length, capacity,
// stash depth, resize progress and its bucket-load histogram — are read
// under that shard's read lock, so they describe one instant even
// mid-migration. Shards are read one after another, so concurrent
// writers may shift the cross-shard totals as they accumulate.
func (m *Map[K, V]) Stats() Stats {
	st := Stats{Shards: len(m.shards)}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n := sh.core.Len()
		st.Len += n
		st.Capacity += sh.core.Capacity()
		st.Stashed += sh.core.StashLen()
		st.Resizes += sh.core.Resizes()
		st.Migrating += sh.core.Pending()
		sh.core.AddBucketLoads(&st.BucketLoads)
		sh.mu.RUnlock()
		if i == 0 || n < st.MinShardLen {
			st.MinShardLen = n
		}
		if n > st.MaxShardLen {
			st.MaxShardLen = n
		}
	}
	if st.Capacity > 0 {
		st.Occupancy = float64(st.Len) / float64(st.Capacity)
	}
	return st
}
