package cmap

// Optional latency and probe-depth instrumentation. The map carries a
// single *Metrics pointer; when nil (the default) the hot paths pay
// exactly one predictable branch per operation. When attached, Get
// and Put time a 1-in-64 sample of operations — two clock reads cost
// ~50ns, which full timing would put on every ~90ns Get, blowing the
// 5% overhead budget the benchmarks pin — while GetBatch times every
// call (two clock reads amortize over the whole batch). Get and
// GetBatch both record the probe depth of every sampled hit, so the
// which-choice distribution fills under batched traffic too.
//
// The sample is selected by a remix of the operation's own SipHash
// digest (see sampled): unbiased across keys, deterministic per key,
// and cheap — routing (or GetBatch's hashing pass) already computed the
// digest.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// sampleMask selects the timed sample: operations whose remixed
// digest's low six bits are zero, i.e. 1 in 64.
const sampleMask = 63

// sampled reports whether the operation on digest is in the timed
// sample. The bits come from a remix, not from the digest itself: every
// digest bit feeds shard routing or candidate derivation, so selecting
// on raw digest bits would pick only keys whose first candidate bucket
// is ≡ 0 (mod 64).
//
//repro:noalloc
func sampled(digest uint64) bool { return rng.Mix64(digest)&sampleMask == 0 }

// baseTime anchors the sampler's monotonic clock.
var baseTime = time.Now()

// nowNanos reads the monotonic clock as plain nanoseconds, so the
// timed paths carry int64s instead of time.Time structs.
//
//repro:noalloc
func nowNanos() int64 { return time.Since(baseTime).Nanoseconds() }

// Metrics is the map's optional observability hook. Every field must
// be non-nil when attached (use NewMetrics); the histograms record
// nanoseconds except ProbeDepth, which records the candidate index
// that resolved a sampled hit — the paper's which-choice-held
// distribution: 0..d-1 for bucket hits, d for a stash hit, and
// offsets past d for hits probed through a resize's new geometry.
type Metrics struct {
	GetNanos   *obs.Histogram // sampled Get wall latency
	PutNanos   *obs.Histogram // sampled Put wall latency
	BatchNanos *obs.Histogram // whole-call GetBatch wall latency
	ProbeDepth *obs.Histogram // candidate index resolving sampled Get and GetBatch hits
}

// NewMetrics returns a Metrics with every instrument allocated.
func NewMetrics() *Metrics {
	return &Metrics{
		GetNanos:   new(obs.Histogram),
		PutNanos:   new(obs.Histogram),
		BatchNanos: new(obs.Histogram),
		ProbeDepth: new(obs.Histogram),
	}
}

// SetMetrics attaches mx to the map (nil detaches). Attach before the
// map sees concurrent traffic: the pointer is read unsynchronized on
// the hot paths.
func (m *Map[K, V]) SetMetrics(mx *Metrics) { m.metrics = mx }

// Metrics returns the attached instrumentation, nil if none.
func (m *Map[K, V]) Metrics() *Metrics { return m.metrics }
