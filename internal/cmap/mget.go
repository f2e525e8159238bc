package cmap

// Batched lookups. GetBatch hashes a chunk of keys in one pass
// (keyed.DigestBatch — pure compute, no memory traffic), then routes
// each digest to its shard and probes it under the shard's read lock,
// exactly as Get does, probe-depth sample included. Each key's hit/miss
// is individually consistent — a Get's guarantee — but different keys
// may observe different instants; a batch is not a snapshot. Chunking
// bounds the digest scratch to a stack array.

import "repro/internal/keyed"

// mgetChunk is the number of keys hashed per pass: the digest scratch
// is a [mgetChunk]uint64 on the stack.
const mgetChunk = 64

// GetBatch resolves keys[i] → (vals[i], found[i]) for every i, returning
// the number found. vals and found must be at least len(keys) long (it
// panics otherwise); entries beyond len(keys) are untouched. Each key's
// result is individually consistent with concurrent writers, but the
// batch as a whole is not an atomic snapshot.
//
//repro:noalloc
func (m *Map[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	if len(vals) < len(keys) || len(found) < len(keys) {
		panic("cmap: GetBatch output slices shorter than keys")
	}
	var start int64
	mx := m.metrics
	if mx != nil {
		// Every batch is timed (no sampling): the two clock reads
		// amortize over the whole batch.
		start = nowNanos()
	}
	var digests [mgetChunk]uint64
	hits := 0
	for off := 0; off < len(keys); off += mgetChunk {
		chunk := keys[off:min(off+mgetChunk, len(keys))]
		keyed.DigestBatch(m.hash, m.sipKey, chunk, digests[:len(chunk)])
		hits += m.getChunk(&digests, chunk, vals[off:], found[off:])
	}
	if mx != nil {
		mx.BatchNanos.Record(nowNanos() - start)
	}
	return hits
}

// getChunk routes and probes one chunk (len(keys) <= mgetChunk,
// digests[i] already computed for keys[i]). With Metrics attached it
// records the probe depth of every hit in Get's sample (see sampled).
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) getChunk(digests *[mgetChunk]uint64, keys []K, vals []V, found []bool) int {
	mx := m.metrics
	hits := 0
	for i, key := range keys {
		sh, tag := m.routeDigest(digests[i])
		var depth int
		vals[i], depth, found[i] = m.lockedGet(sh, tag, key)
		if found[i] {
			hits++
			if mx != nil && sampled(digests[i]) {
				mx.ProbeDepth.Record(int64(depth))
			}
		}
	}
	return hits
}

// MGet is the allocating convenience form of GetBatch: it returns fresh
// vals and found slices of len(keys).
func (m *Map[K, V]) MGet(keys []K) (vals []V, found []bool) {
	vals = make([]V, len(keys))
	found = make([]bool, len(keys))
	m.GetBatch(keys, vals, found)
	return vals, found
}
