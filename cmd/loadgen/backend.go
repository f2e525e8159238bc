package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmap"
	"repro/internal/keyed"
	"repro/internal/table"
)

// backend is the store under load. Keys are ids the op loop draws;
// each backend renders them into its own key type, and stores the put
// tag it is handed as (or inside) the value, handing it back on reads.
type backend interface {
	name() string
	// session opens worker i's handle; sessions are not shared.
	session(i int) (session, error)
	// quiesce runs once, after the workers: it stops background work,
	// finishes any in-flight migration, and returns the resident pair
	// count, or -1 if the backend cannot count them.
	quiesce() int
	// report prints the backend's own post-run figures.
	report(out io.Writer)
}

// session is one worker's view of a backend.
type session interface {
	get(id uint64) (val uint64, ok bool, err error)
	// getBatch fills vals[i]/found[i] for ids[i]; vals and found are
	// len(ids) long.
	getBatch(ids, vals []uint64, found []bool) error
	put(id, val uint64) (stored bool, err error)
	del(id uint64) (present bool, err error)
	close() error
}

// mapBackend is the in-process backend: a typed cmap.Map[K, uint64]
// keyed through keyOf, which must be injective for -verify, plus the
// optional -drain background migrator.
type mapBackend[K comparable] struct {
	cfg   config
	m     *cmap.Map[K, uint64]
	keyOf func(uint64) K

	stop    atomic.Bool
	drainer sync.WaitGroup
	pending int // entries still mid-migration when the workers finished
}

func newMapBackend[K comparable](cfg config, h keyed.Hasher[K], keyOf func(uint64) K) *mapBackend[K] {
	b := &mapBackend[K]{cfg: cfg, keyOf: keyOf, m: cmap.NewKeyed[K, uint64](h, cmap.Config{
		Shards: cfg.shards, BucketsPerShard: cfg.buckets, SlotsPerBucket: cfg.slots,
		D: cfg.d, Seed: cfg.seed, StashPerShard: cfg.stash,
		MaxLoadFactor: cfg.grow, MigrateBatch: cfg.batch,
	})}
	// Migration progresses even when the mix is too read-heavy to
	// piggyback it quickly. Pointless without resize, so it needs -grow.
	if cfg.drain && cfg.grow > 0 {
		b.drainer.Add(1)
		go func() {
			defer b.drainer.Done()
			for !b.stop.Load() {
				if b.m.MigrateStep(cfg.batch) == 0 {
					// Idle: sleep rather than spin, so the drainer does
					// not perturb the numbers it exists to protect.
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}
	return b
}

func (b *mapBackend[K]) name() string { return "cmap[" + b.cfg.keytype + "]" }

func (b *mapBackend[K]) session(int) (session, error) {
	return &mapSession[K]{m: b.m, keyOf: b.keyOf}, nil
}

func (b *mapBackend[K]) quiesce() int {
	b.stop.Store(true)
	b.drainer.Wait()
	b.pending = b.m.Stats().Migrating
	for b.m.MigrateStep(1024) > 0 {
	}
	return b.m.Len()
}

func (b *mapBackend[K]) report(out io.Writer) {
	capacity := b.cfg.shards * b.cfg.buckets * b.cfg.slots
	st := b.m.Stats()
	fmt.Fprintf(out, "\n%s: %d shards × %d buckets × %d slots (capacity %d), d=%d, one SipHash per op, resize watermark %v, drainer %v\n",
		b.name(), st.Shards, b.cfg.buckets, b.cfg.slots, capacity, b.cfg.d, b.cfg.grow, b.cfg.drain)
	if st.Resizes > 0 {
		fmt.Fprintf(out, "resizes completed: %d, capacity %d → %d slots, %d entries were still mid-migration at finish (drained)\n",
			st.Resizes, capacity, st.Capacity, b.pending)
	}
	fmt.Fprintf(out, "occupancy %.3f  (%d pairs / %d slots), stash %d, shard len min/max %d/%d\n",
		st.Occupancy, st.Len, st.Capacity, st.Stashed, st.MinShardLen, st.MaxShardLen)
	fmt.Fprintln(out, "\nBucket-load histogram (all shards aggregated):")
	tw := table.New("load", "buckets", "fraction")
	for v := 0; v <= st.BucketLoads.MaxValue(); v++ {
		tw.AddRow(fmt.Sprint(v), fmt.Sprint(st.BucketLoads.Count(v)), table.Prob(st.BucketLoads.Fraction(v)))
	}
	fmt.Fprint(out, tw.String())
}

// mapSession calls the map directly; its methods are on the op loop's
// hot path, so they must not allocate (keyOf may, for string keys).
type mapSession[K comparable] struct {
	m     *cmap.Map[K, uint64]
	keyOf func(uint64) K
	keys  []K // GetBatch key scratch
}

//repro:noalloc
func (s *mapSession[K]) get(id uint64) (uint64, bool, error) {
	v, ok := s.m.Get(s.keyOf(id))
	return v, ok, nil
}

//repro:noalloc
func (s *mapSession[K]) getBatch(ids, vals []uint64, found []bool) error {
	s.keys = s.keys[:0]
	for _, id := range ids {
		s.keys = append(s.keys, s.keyOf(id))
	}
	s.m.GetBatch(s.keys, vals, found)
	return nil
}

//repro:noalloc
func (s *mapSession[K]) put(id, val uint64) (bool, error) {
	return s.m.Put(s.keyOf(id), val), nil
}

//repro:noalloc
func (s *mapSession[K]) del(id uint64) (bool, error) {
	return s.m.Delete(s.keyOf(id)), nil
}

func (s *mapSession[K]) close() error { return nil }
