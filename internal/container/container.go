// Package container defines the one public surface every key-value
// container in this library presents: the generic Container interface
// and the common Stats snapshot. The four table families — the sharded
// concurrent map (internal/cmap), the single-threaded multiple-choice
// table (internal/mchtable), the cuckoo map (internal/cuckoo) and the
// open-addressed map (internal/openaddr) — all satisfy
// Container[K, V], so callers (and internal/testutil's differential
// oracle) can swap table families without touching call sites.
package container

import "repro/internal/stats"

// Stats is the occupancy/overflow snapshot every container reports.
// Fields that do not apply to a particular table family are zero (a
// non-sharded table reports Shards == 1 and Min/MaxShardLen == Len; a
// table without a stash or online resize reports Stashed == 0 and
// Resizes == 0).
type Stats struct {
	Shards      int        // shard count (1 for unsharded tables)
	Len         int        // stored pairs, stash included
	Capacity    int        // total slot capacity (both geometries mid-resize)
	Stashed     int        // overflow-stashed pairs
	Occupancy   float64    // Len / Capacity
	MinShardLen int        // least-loaded shard's pair count
	MaxShardLen int        // most-loaded shard's pair count
	Resizes     int        // completed online resizes
	Migrating   int        // entries still awaiting migration in resizing shards
	BucketLoads stats.Hist // occupied-slots-per-bucket histogram (slot occupancy for 1-slot tables)
}

// Container is the shared typed key-value store contract.
//
// Put stores key → val, updating in place if key is resident, and
// reports whether the pair is stored; false means a capacity rejection
// with the container unchanged (a resident key must always be updatable
// in place). Get returns the stored value. GetBatch resolves a whole
// key slice — vals[i], found[i] answer keys[i], and the return value is
// the number found; vals and found must each hold at least len(keys)
// entries. Batching is a performance contract, not a semantic one:
// GetBatch(keys) observes exactly what per-key Gets would (for the
// concurrent map, each key is individually consistent rather than the
// batch being one atomic snapshot), but implementations may amortize
// hashing, dispatch and memory latency across the batch. Delete removes
// key, reporting whether it was present. Len counts stored pairs. Range
// calls fn for every stored pair until fn returns false, visiting each
// resident key exactly once; fn must not mutate the container (for the
// sharded concurrent map the view is per-shard consistent, and fn runs
// under a shard lock). Stats takes the common occupancy snapshot.
//
// Every keyed operation costs exactly one keyed hash evaluation of key —
// the paper's one-hash discipline is part of the contract, not an
// implementation detail (GetBatch spends one evaluation per key; Range
// re-hashes nothing at all).
type Container[K comparable, V any] interface {
	Put(key K, val V) bool
	Get(key K) (V, bool)
	GetBatch(keys []K, vals []V, found []bool) int
	Delete(key K) bool
	Len() int
	Range(fn func(key K, val V) bool)
	Stats() Stats
}

// GetBatchSerial implements the GetBatch contract with one Get per key —
// the adapter for the single-threaded families (mchtable, cuckoo, open
// addressing), so the Container interface stays uniform while the one
// batched read path lives in the concurrent map (internal/cmap). It
// panics if vals or found cannot hold len(keys) results, matching that
// batched implementation.
func GetBatchSerial[K comparable, V any](get func(K) (V, bool), keys []K, vals []V, found []bool) int {
	if len(vals) < len(keys) || len(found) < len(keys) {
		panic("container: GetBatchSerial result slices do not cover the key batch")
	}
	n := 0
	for i, k := range keys {
		vals[i], found[i] = get(k)
		if found[i] {
			n++
		}
	}
	return n
}
