package cmap

// Tests for the read path: exact reads under concurrent resize (the
// case the race detector must bless), batched lookups mid-migration, and
// the consistency of the Stats snapshot.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keyed"
	"repro/internal/rng"
)

// TestStableReadsDuringResize is the torn-read hunt: a set of stable
// keys is written once, then writer goroutines churn a disjoint key
// range hard enough to drive repeated resizes (MigrateBatch 1 keeps
// every shard mid-migration almost continuously, maximizing the window
// where Gets probe two geometries), while reader goroutines hammer the
// stable keys through both Get and GetBatch and require exact values
// every time. A read that saw a half-finished mutation or promotion
// shows up as a wrong value or a false miss; under -race, any
// unsynchronized writer/reader overlap shows up as a report.
func TestStableReadsDuringResize(t *testing.T) {
	const (
		stableKeys = 1 << 10
		writers    = 2
		readers    = 2
		writerOps  = 15000
	)
	m := New(Config{
		Shards: 2, BucketsPerShard: 16, SlotsPerBucket: 2, D: 3, Seed: 7,
		StashPerShard: 16, MaxLoadFactor: 0.6, MigrateBatch: 1,
	})
	for k := uint64(1); k <= stableKeys; k++ {
		// MigrateBatch 1 lets the fill outrun migration; a rejection just
		// means the in-flight doubling needs draining before the next one
		// can start.
		for !m.Put(k, k*3) {
			if m.MigrateStep(64) == 0 {
				t.Fatalf("stable fill rejected key %d with nothing to migrate", k)
			}
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.NewXoshiro256(uint64(w+1) * 0x9E3779B97F4A7C15)
			for i := 0; i < writerOps; i++ {
				// Disjoint churn range: deletes keep occupancy oscillating
				// around the watermark so resizes keep starting.
				k := 1<<20 + uint64(w)<<32 + src.Uint64()%(1<<12)
				if src.Uint64()%4 == 0 {
					m.Delete(k)
				} else {
					m.Put(k, k)
				}
			}
			stop.Store(true)
		}(w)
	}

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := rng.NewXoshiro256(uint64(r+100) * 0xD1B54A32D192ED03)
			batch := make([]uint64, 48)
			vals := make([]uint64, len(batch))
			found := make([]bool, len(batch))
			for !stop.Load() {
				k := 1 + src.Uint64()%stableKeys
				if v, ok := m.Get(k); !ok || v != k*3 {
					errs <- fmt.Errorf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*3)
					return
				}
				for i := range batch {
					batch[i] = 1 + src.Uint64()%stableKeys
				}
				if hits := m.GetBatch(batch, vals, found); hits != len(batch) {
					errs <- fmt.Errorf("GetBatch hit %d of %d stable keys", hits, len(batch))
					return
				}
				for i, k := range batch {
					if !found[i] || vals[i] != k*3 {
						errs <- fmt.Errorf("GetBatch[%d] key %d = (%d, %v), want (%d, true)", i, k, vals[i], found[i], k*3)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := m.Stats(); st.Resizes == 0 {
		t.Error("churn drove no resizes; the test exercised nothing")
	}
}

// TestGetBatchMidMigration pins batched lookups against a map whose
// every shard has a nearly untouched resize backlog: each key must
// resolve whether it still lives in the old geometry or has already
// migrated to the new one.
func TestGetBatchMidMigration(t *testing.T) {
	const n = 4096
	m := New(Config{
		Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 2, D: 3, Seed: 9,
		StashPerShard: 32, MaxLoadFactor: 0.7, MigrateBatch: 1,
	})
	for k := uint64(1); k <= n; k++ {
		for !m.Put(k, ^k) { // MigrateBatch 1: drain a little and retry
			if m.MigrateStep(64) == 0 {
				t.Fatalf("fill rejected key %d with nothing to migrate", k)
			}
		}
	}
	if st := m.Stats(); st.Migrating == 0 {
		t.Fatal("no migration in flight; the test would only probe one geometry")
	}
	keys := make([]uint64, 0, n+64)
	for k := uint64(1); k <= n; k++ {
		keys = append(keys, k)
	}
	for k := uint64(n + 1); k <= n+64; k++ {
		keys = append(keys, k) // absent keys mixed in
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	if hits := m.GetBatch(keys, vals, found); hits != n {
		t.Fatalf("GetBatch found %d of %d resident keys", hits, n)
	}
	for i, k := range keys {
		if k <= n && (!found[i] || vals[i] != ^k) {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, vals[i], found[i], ^k)
		}
		if k > n && found[i] {
			t.Fatalf("absent key %d reported present", k)
		}
	}
	// Drain and re-probe: the same batch against the settled geometry.
	for m.MigrateStep(256) > 0 {
	}
	if hits := m.GetBatch(keys, vals, found); hits != n {
		t.Fatalf("post-drain GetBatch found %d of %d resident keys", hits, n)
	}
}

// TestMGet covers the allocating wrapper and GetBatch edge shapes:
// duplicate keys in one batch, empty batches, chunk-boundary lengths,
// and a pointerful key type (string) through the same interface.
func TestMGet(t *testing.T) {
	m := New(Config{Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 3})
	for k := uint64(1); k <= 100; k++ {
		m.Put(k, k+1000)
	}
	vals, found := m.MGet([]uint64{5, 5, 999, 7, 5})
	want := []struct {
		v  uint64
		ok bool
	}{{1005, true}, {1005, true}, {0, false}, {1007, true}, {1005, true}}
	for i, w := range want {
		if found[i] != w.ok || (w.ok && vals[i] != w.v) {
			t.Errorf("MGet[%d] = (%d, %v), want (%d, %v)", i, vals[i], found[i], w.v, w.ok)
		}
	}
	if vals, found := m.MGet(nil); len(vals) != 0 || len(found) != 0 {
		t.Error("MGet(nil) returned non-empty slices")
	}
	// Lengths straddling the pipelining chunk: 1 under, exact, 1 over.
	for _, n := range []int{mgetChunk - 1, mgetChunk, mgetChunk + 1, 3 * mgetChunk} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i%100) + 1
		}
		vals, found := m.MGet(keys)
		for i, k := range keys {
			if !found[i] || vals[i] != k+1000 {
				t.Fatalf("n=%d: MGet[%d] key %d = (%d, %v)", n, i, k, vals[i], found[i])
			}
		}
	}

	sm := NewKeyed[string, uint64](keyed.ForType[string](), Config{
		Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, Seed: 3,
	})
	sm.Put("alpha", 1)
	sm.Put("beta", 2)
	vals2, found2 := sm.MGet([]string{"beta", "gamma", "alpha"})
	if !found2[0] || vals2[0] != 2 || found2[1] || !found2[2] || vals2[2] != 1 {
		t.Errorf("string MGet = %v %v", vals2, found2)
	}

	defer func() {
		if recover() == nil {
			t.Error("GetBatch with short outputs did not panic")
		}
	}()
	m.GetBatch([]uint64{1, 2, 3}, make([]uint64, 2), make([]bool, 3))
}

// TestStatsConsistency checks the Stats snapshot two ways. Quiesced, it
// must be exact: Len matches, capacity matches the settled geometry, and
// the bucket-load histogram accounts for every bucket and every
// non-stashed pair. Under write churn with resizes in flight, each call
// must still return an internally plausible snapshot — the histogram
// must cover exactly the buckets implied by the capacity seen in the
// same pass, which fails if a shard's figures mix two geometries.
func TestStatsConsistency(t *testing.T) {
	m := New(Config{
		Shards: 4, BucketsPerShard: 32, SlotsPerBucket: 2, D: 3, Seed: 11,
		StashPerShard: 16, MaxLoadFactor: 0.7, MigrateBatch: 4,
	})
	const n = 3000
	for k := uint64(1); k <= n; k++ {
		m.Put(k, k)
	}
	for m.MigrateStep(256) > 0 {
	}

	st := m.Stats()
	if st.Len != n || st.Len != m.Len() {
		t.Errorf("quiesced Stats.Len = %d, want %d", st.Len, n)
	}
	if st.Migrating != 0 {
		t.Errorf("quiesced Stats.Migrating = %d", st.Migrating)
	}
	slots := 2
	if got, want := int(st.BucketLoads.Total()), st.Capacity/slots; got != want {
		t.Errorf("histogram covers %d buckets, capacity implies %d", got, want)
	}
	weighted := 0
	for load := 0; load <= st.BucketLoads.MaxValue(); load++ {
		weighted += load * int(st.BucketLoads.Count(load))
	}
	if weighted != st.Len-st.Stashed {
		t.Errorf("histogram holds %d pairs, Len-Stashed = %d", weighted, st.Len-st.Stashed)
	}

	// Churn phase: Stats must stay plausible while shards resize.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.NewXoshiro256(99)
		for i := 0; i < 20000; i++ {
			k := 1 << 20 << uint(src.Uint64()%2) // two bands, forcing growth
			m.Put(uint64(k)+src.Uint64()%(1<<13), 1)
			if src.Uint64()%3 == 0 {
				m.Delete(uint64(k) + src.Uint64()%(1<<13))
			}
		}
		stop.Store(true)
	}()
	for !stop.Load() {
		st := m.Stats()
		if st.Len < n {
			t.Errorf("churn never deletes stable keys, yet Stats.Len = %d < %d", st.Len, n)
			break
		}
		if got := int(st.BucketLoads.Total()); got*slots != st.Capacity {
			t.Errorf("histogram covers %d buckets, capacity %d implies %d", got, st.Capacity, st.Capacity/slots)
			break
		}
	}
	wg.Wait()
}
