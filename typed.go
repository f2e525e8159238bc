package repro

// This file is the typed container API: the generic Map/Table/CuckooMap/
// OpenMap families over any comparable key type, the pluggable Hasher[K]
// that keeps every operation at exactly one keyed hash evaluation (the
// paper's one-hash discipline as an API contract), the functional-options
// constructor set shared by all four families, and the common
// Container[K, V] interface they satisfy.

import (
	"repro/internal/cmap"
	"repro/internal/container"
	"repro/internal/cuckoo"
	"repro/internal/keyed"
	"repro/internal/mchtable"
	"repro/internal/openaddr"
)

// Typed container API.
type (
	// Hasher computes the single keyed 64-bit digest of a key — the one
	// hash evaluation per operation that drives shard routing, the
	// (f, g) double-hashing split and all d candidate buckets. See
	// HasherFor, StringHasher, BytesHasher and Uint64Hasher for the
	// built-ins.
	Hasher[K comparable] = keyed.Hasher[K]

	// Map is the concurrency-safe sharded multiple-choice hash map — the
	// production container, and the only concurrency-safe one. One keyed
	// hash evaluation routes a key to a shard (digest high bits) and
	// derives its d candidate buckets inside the shard (remaining bits);
	// with a max load factor set (the NewMap default), shards crossing
	// the watermark double their bucket count and migrate online without
	// ever re-hashing a key.
	Map[K comparable, V any] = cmap.Map[K, V]

	// Table is the typed single-threaded multiple-choice hash table:
	// the same buckets + stash + least-loaded placement as Map's shards,
	// without locks or sharding.
	Table[K comparable, V any] = mchtable.Map[K, V]

	// CuckooMap is the typed d-ary cuckoo hash map (one pair per slot,
	// random-walk eviction, double-hashed candidates from one digest).
	// Not safe for concurrent use.
	CuckooMap[K comparable, V any] = cuckoo.Map[K, V]

	// OpenMap is the typed open-addressed hash map (double-hashed probe
	// sequence by default, tombstone deletion). Not safe for concurrent
	// use.
	OpenMap[K comparable, V any] = openaddr.Map[K, V]

	// Container is the contract all four typed families satisfy:
	// Put/Get/Delete/Len plus the common Stats snapshot. Code written
	// against Container swaps table families without touching call
	// sites.
	Container[K comparable, V any] = container.Container[K, V]
)

// ContainerStats is the common occupancy/overflow snapshot every
// container's Stats method reports (fields that do not apply to a family
// are zero).
type ContainerStats = container.Stats

// Compile-time proof that every typed family satisfies Container.
var (
	_ Container[uint64, uint64]   = (*Map[uint64, uint64])(nil)
	_ Container[string, []byte]   = (*Map[string, []byte])(nil)
	_ Container[string, string]   = (*Table[string, string])(nil)
	_ Container[uint64, uint64]   = (*CuckooMap[uint64, uint64])(nil)
	_ Container[[2]uint64, int]   = (*OpenMap[[2]uint64, int])(nil)
	_ Container[uint64, struct{}] = (*Map[uint64, struct{}])(nil)
)

// Built-in hashers. Every one is a pure function of (seed material, key)
// with zero allocations per call.

// HasherFor returns the built-in Hasher for K: the little-endian integer
// encoding for integer keys, the in-place string hasher for string keys,
// and the fixed-size byte view for pointer-free, padding-free arrays and
// structs. It panics for key types without byte identity (floats,
// pointers, interfaces, ...) — supply a custom Hasher for those.
func HasherFor[K comparable]() Hasher[K] { return keyed.ForType[K]() }

// StringHasher returns the Hasher for any string-backed key type. It
// hashes the string's bytes in place: Get on a string-keyed map is
// 0 allocs/op.
func StringHasher[K ~string]() Hasher[K] { return keyed.StringOf[K]() }

// BytesHasher returns the Hasher viewing K's in-memory bytes (native
// endianness) — for fixed-size composite keys such as packet 5-tuples.
// It panics unless K is pointer-free, float-free and padding-free; see
// internal/keyed.BytesOf for why each is required.
func BytesHasher[K comparable]() Hasher[K] { return keyed.BytesOf[K]() }

// Uint64Hasher hashes a uint64 key as its 8-byte little-endian encoding —
// byte-identical to the digests the internal uint64 tables compute, so
// typed and uint64 containers with the same seed agree on every digest.
var Uint64Hasher Hasher[uint64] = keyed.Uint64

// HashBytes digests a raw byte slice under key. []byte is not comparable
// and so cannot key a container; HashBytes serves callers that digest
// content (chunks, payloads) before keying by something comparable, and
// equals HashString of the same bytes.
func HashBytes(key SipKey, b []byte) uint64 { return keyed.Bytes(key, b) }

// HashString digests a string's bytes under key, without allocating.
func HashString(key SipKey, s string) uint64 { return keyed.String(key, s) }

// Functional options shared by the typed constructors. Each constructor
// documents the options it consumes; options that do not apply to a
// family are ignored (WithProbe configures only OpenMap, WithMaxKicks
// only CuckooMap, and so on).
type options struct {
	shards         int
	buckets        int
	slots          int
	d              int
	stash          int
	maxLoad        float64
	migrateBatch   int
	seed           uint64
	capacity       int
	maxKicks       int
	probe          openaddr.Probe
	walNoSync      bool
	durableMetrics *DurableMetrics
}

// Option configures a typed container constructor.
type Option func(*options)

func buildOptions(opts []Option) options {
	o := options{
		shards:       16,
		buckets:      1 << 10,
		slots:        4,
		d:            3,
		stash:        32,
		maxLoad:      0.85,
		migrateBatch: 32,
		seed:         1,
		capacity:     1 << 16,
		maxKicks:     500,
		probe:        openaddr.DoubleHash,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithShards sets Map's shard count (rounded up to a power of two;
// default 16). More shards mean less write contention.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithBuckets sets the bucket count (default 1024): per shard for Map —
// the *initial* count when growth is enabled — and total for Table.
func WithBuckets(n int) Option { return func(o *options) { o.buckets = n } }

// WithSlots sets the slots per bucket for Map and Table (default 4).
func WithSlots(n int) Option { return func(o *options) { o.slots = n } }

// WithD sets the number of candidate buckets/slots per key for Map,
// Table and CuckooMap (default 3) — the paper's d.
func WithD(d int) Option { return func(o *options) { o.d = d } }

// WithMaxLoadFactor sets Map's online-resize watermark (default 0.85): a
// shard whose occupancy crosses it doubles its bucket count and migrates
// incrementally. 0 disables growth — the map becomes fixed-capacity and
// Put can reject.
func WithMaxLoadFactor(f float64) Option { return func(o *options) { o.maxLoad = f } }

// WithMigrateBatch sets how many entries each Put/Delete migrates while
// a Map shard resize is in flight (default 32) — the knob trading
// migration speed against write tail latency.
func WithMigrateBatch(n int) Option { return func(o *options) { o.migrateBatch = n } }

// WithSeed sets the hash seed material (default 1). Two containers with
// the same seed and hasher digest every key identically.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithStash sets the overflow stash capacity for Map (per shard) and
// Table (default 32).
func WithStash(n int) Option { return func(o *options) { o.stash = n } }

// WithCapacity sets the total slot capacity for CuckooMap and OpenMap
// (default 65536, one pair per slot).
func WithCapacity(n int) Option { return func(o *options) { o.capacity = n } }

// WithMaxKicks sets CuckooMap's eviction budget per insertion (default
// 500).
func WithMaxKicks(n int) Option { return func(o *options) { o.maxKicks = n } }

// WithProbe sets OpenMap's probe discipline (default ProbeDoubleHash).
func WithProbe(p ProbeKind) Option { return func(o *options) { o.probe = p } }

// WithWALSync sets whether Open's write-ahead log fsyncs before
// acknowledging a write (default true: an acknowledged write survives
// power loss, with concurrent writers group-committed into shared
// fsyncs). false trades that guarantee for raw throughput — a process
// crash still loses nothing, but power loss can drop the OS-buffered
// tail.
func WithWALSync(on bool) Option { return func(o *options) { o.walNoSync = !on } }

// WithDurableMetrics attaches observability instruments to Open's
// durable map: WAL append/fsync latency, group-commit batch sizes,
// sticky-poison events, recovery replay totals, and checkpoint
// duration/size. dm must have every field non-nil (use
// NewDurableMetrics). Only Open consumes it.
func WithDurableMetrics(dm *DurableMetrics) Option {
	return func(o *options) { o.durableMetrics = dm }
}

// NewMap returns an empty concurrency-safe sharded map keyed by K's
// built-in hasher (HasherFor[K]; panics for key types without one — use
// NewMapOf to supply a custom Hasher). Growth is on by default: shards
// double past the 0.85 occupancy watermark and migrate online, so Put
// effectively never rejects; pass WithMaxLoadFactor(0) for a fixed-
// capacity map.
//
// Options consumed: WithShards, WithBuckets, WithSlots, WithD, WithStash,
// WithMaxLoadFactor, WithMigrateBatch, WithSeed.
func NewMap[K comparable, V any](opts ...Option) *Map[K, V] {
	return NewMapOf[K, V](HasherFor[K](), opts...)
}

// NewMapOf is NewMap with an explicit Hasher — for key types without a
// built-in hasher, or to override the encoding.
func NewMapOf[K comparable, V any](h Hasher[K], opts ...Option) *Map[K, V] {
	o := buildOptions(opts)
	return cmap.NewKeyed[K, V](h, cmap.Config{
		Shards:          o.shards,
		BucketsPerShard: o.buckets,
		SlotsPerBucket:  o.slots,
		D:               o.d,
		Seed:            o.seed,
		StashPerShard:   o.stash,
		MaxLoadFactor:   o.maxLoad,
		MigrateBatch:    o.migrateBatch,
	})
}

// NewTable returns an empty typed single-threaded multiple-choice table
// keyed by K's built-in hasher. Table is fixed-capacity: Put rejects
// when every candidate bucket and the stash are full.
//
// Options consumed: WithBuckets (total), WithSlots, WithD, WithStash,
// WithSeed.
func NewTable[K comparable, V any](opts ...Option) *Table[K, V] {
	return NewTableOf[K, V](HasherFor[K](), opts...)
}

// NewTableOf is NewTable with an explicit Hasher.
func NewTableOf[K comparable, V any](h Hasher[K], opts ...Option) *Table[K, V] {
	o := buildOptions(opts)
	return mchtable.NewMap[K, V](h, mchtable.Config{
		Buckets:        o.buckets,
		SlotsPerBucket: o.slots,
		D:              o.d,
		Seed:           o.seed,
		StashSize:      o.stash,
	})
}

// NewCuckooMap returns an empty typed cuckoo map keyed by K's built-in
// hasher.
//
// Options consumed: WithCapacity, WithD, WithMaxKicks, WithSeed.
func NewCuckooMap[K comparable, V any](opts ...Option) *CuckooMap[K, V] {
	return NewCuckooMapOf[K, V](HasherFor[K](), opts...)
}

// NewCuckooMapOf is NewCuckooMap with an explicit Hasher.
func NewCuckooMapOf[K comparable, V any](h Hasher[K], opts ...Option) *CuckooMap[K, V] {
	o := buildOptions(opts)
	m := cuckoo.NewMap[K, V](h, o.capacity, o.d, o.seed)
	if o.maxKicks > 0 {
		m.SetMaxKicks(o.maxKicks)
	}
	return m
}

// NewOpenMap returns an empty typed open-addressed map keyed by K's
// built-in hasher.
//
// Options consumed: WithCapacity, WithProbe, WithSeed.
func NewOpenMap[K comparable, V any](opts ...Option) *OpenMap[K, V] {
	return NewOpenMapOf[K, V](HasherFor[K](), opts...)
}

// NewOpenMapOf is NewOpenMap with an explicit Hasher.
func NewOpenMapOf[K comparable, V any](h Hasher[K], opts ...Option) *OpenMap[K, V] {
	o := buildOptions(opts)
	return openaddr.NewMap[K, V](h, o.capacity, o.probe, o.seed)
}
