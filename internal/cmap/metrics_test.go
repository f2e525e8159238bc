package cmap

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsSampling: with Metrics attached, the digest-selected
// 1-in-64 sample must populate the latency and probe-depth
// histograms, every GetBatch call must be timed, and results must be
// identical to the uninstrumented map's.
func TestMetricsSampling(t *testing.T) {
	m := New(Config{Shards: 2, BucketsPerShard: 256, SlotsPerBucket: 4, D: 3, Seed: 21, MaxLoadFactor: 0.9})
	mx := NewMetrics()
	m.SetMetrics(mx)
	if m.Metrics() != mx {
		t.Fatal("Metrics() did not return the attached instrumentation")
	}

	const n = 4096 // ~64 sampled ops in expectation
	for k := uint64(1); k <= n; k++ {
		if !m.Put(k, k+7) {
			t.Fatalf("Put(%d) rejected", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Get(k); !ok || v != k+7 {
			t.Fatalf("instrumented Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	keys := make([]uint64, 128)
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	const batchCalls = 5
	for c := 0; c < batchCalls; c++ {
		if hits := m.GetBatch(keys, vals, found); hits != len(keys) {
			t.Fatalf("instrumented GetBatch hit %d of %d", hits, len(keys))
		}
	}

	var s obs.HistSnapshot
	snap := func(h *obs.Histogram) uint64 { h.Snapshot(&s); return s.Count }
	if c := snap(mx.GetNanos); c == 0 {
		t.Error("no Get latency samples recorded across 4096 lookups")
	}
	if c := snap(mx.PutNanos); c == 0 {
		t.Error("no Put latency samples recorded across 4096 stores")
	}
	if c := snap(mx.BatchNanos); c != batchCalls {
		t.Errorf("BatchNanos recorded %d calls, want %d", c, batchCalls)
	}
	mx.ProbeDepth.Snapshot(&s)
	if s.Count == 0 {
		t.Error("no probe depths recorded")
	}
	if maxDepth := s.Quantile(1); maxDepth > uint64(2*m.D()+1) {
		t.Errorf("probe depth %d exceeds the dual-geometry bound %d", maxDepth, 2*m.D()+1)
	}

	// Sampling is digest-keyed: the same key re-read must hit the same
	// verdict, so two equal read sweeps double the sample count exactly.
	mx.GetNanos.Snapshot(&s)
	before := s.Count
	for k := uint64(1); k <= n; k++ {
		m.Get(k)
	}
	mx.GetNanos.Snapshot(&s)
	if s.Count != 2*before {
		t.Errorf("second identical sweep recorded %d samples, want %d (deterministic digest sampling)", s.Count-before, before)
	}
}

// TestGetBatchProbeDepth: GetBatch alone must feed the probe-depth
// histogram — one observation per hit whose digest is in Get's sample,
// none for misses — and with no resize running every depth is a
// current-geometry candidate index or the stash, i.e. in [0, d].
func TestGetBatchProbeDepth(t *testing.T) {
	m := New(Config{Shards: 4, BucketsPerShard: 256, SlotsPerBucket: 4, D: 3, Seed: 33})
	mx := NewMetrics()
	m.SetMetrics(mx)
	const n = 3000 // ~73% of the fixed 4096 slots; MaxLoadFactor 0 never resizes
	for k := uint64(1); k <= n; k++ {
		if !m.Put(k, k) {
			t.Fatalf("Put(%d) rejected", k)
		}
	}
	// Keys 1..n hit, n+1..2n miss; batches straddle mgetChunk.
	keys := make([]uint64, 2*n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	vals := make([]uint64, 100)
	found := make([]bool, len(vals))
	const sweeps = 3
	var want uint64
	for sweep := 0; sweep < sweeps; sweep++ {
		for off := 0; off < len(keys); off += len(vals) {
			batch := keys[off:min(off+len(vals), len(keys))]
			m.GetBatch(batch, vals, found)
			for i, k := range batch {
				if found[i] != (k <= n) {
					t.Fatalf("GetBatch(%d) found = %v", k, found[i])
				}
				if found[i] && sampled(m.digest(k)) {
					want++
				}
			}
		}
	}
	var s obs.HistSnapshot
	mx.ProbeDepth.Snapshot(&s)
	if want == 0 {
		t.Fatal("no sampled hits among the swept keys")
	}
	if s.Count != want {
		t.Errorf("ProbeDepth recorded %d observations, want %d (sampled GetBatch hits)", s.Count, want)
	}
	if le := s.CountLE(uint64(m.D())); le != s.Count {
		t.Errorf("%d of %d probe depths exceed d = %d with no resize running", s.Count-le, s.Count, m.D())
	}
	if mx.GetNanos.Snapshot(&s); s.Count != 0 {
		t.Errorf("GetBatch-only sweeps recorded %d Get latency samples", s.Count)
	}
}

// TestSampleIndependentOfCandidates: which operations get timed must
// not depend on where the key lives. Selecting on raw digest bits did:
// with a power-of-two bucket count >= 64, every sampled key's first
// candidate bucket was ≡ 0 (mod 64) — through the in-shard tag for Get,
// and for Put at one shard, where the tag is the digest.
func TestSampleIndependentOfCandidates(t *testing.T) {
	for _, shards := range []int{1, 16} {
		m := New(Config{Shards: shards, BucketsPerShard: 1024, SlotsPerBucket: 4, D: 3, Seed: 5})
		mx := NewMetrics()
		m.SetMetrics(mx)
		var s obs.HistSnapshot
		count := func(h *obs.Histogram) uint64 { h.Snapshot(&s); return s.Count }
		getRes, putRes := map[uint32]bool{}, map[uint32]bool{}
		cands := make([]uint32, m.D())
		for k := uint64(1); k <= 2048; k++ {
			sh, tag := m.route(k)
			sh.deriver.CandidateBins(tag, cands)
			before := count(mx.PutNanos)
			if !m.Put(k, k) {
				t.Fatalf("shards=%d: Put(%d) rejected", shards, k)
			}
			if count(mx.PutNanos) > before {
				putRes[cands[0]%64] = true
			}
			before = count(mx.GetNanos)
			m.Get(k)
			if count(mx.GetNanos) > before {
				getRes[cands[0]%64] = true
			}
		}
		if len(getRes) < 2 || len(putRes) < 2 {
			t.Errorf("shards=%d: sampled keys' first candidates cover %d (Get) and %d (Put) residues mod 64, want more than one each",
				shards, len(getRes), len(putRes))
		}
	}
}

// TestMetricsDetached: a nil Metrics (the default) must keep every
// path working and record nothing anywhere.
func TestMetricsDetached(t *testing.T) {
	m := New(Config{Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 2, Seed: 3})
	if m.Metrics() != nil {
		t.Fatal("fresh map has metrics attached")
	}
	for k := uint64(1); k <= 500; k++ {
		m.Put(k, k)
	}
	for k := uint64(1); k <= 500; k++ {
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
}

// TestNowNanosMonotone: the sampler clock must never run backwards
// (it is a monotonic-clock difference, not wall time).
func TestNowNanosMonotone(t *testing.T) {
	a := nowNanos()
	time.Sleep(time.Millisecond)
	b := nowNanos()
	if b <= a {
		t.Fatalf("nowNanos went %d -> %d", a, b)
	}
}
