package wire

// The server-side telemetry: lock-free per-op counters plus
// service-time and batch-size histograms, registered under
// repro_server_* names in the server's obs.Registry. The STATS verb
// encodes that registry, and cmd/served serves the same registry on
// /metrics, so the two cannot drift: both read the same cells.

import (
	"time"

	"repro/internal/obs"
)

// baseTime anchors the server's monotonic service-time clock.
var baseTime = time.Now()

// nowNanos reads the monotonic clock as plain nanoseconds, so timed
// paths carry int64s instead of time.Time structs.
//
//repro:noalloc
func nowNanos() int64 { return time.Since(baseTime).Nanoseconds() }

// Counters is the server's operation telemetry. Every field is an obs
// instrument: connection goroutines bump them lock-free, and a STATS
// snapshot reads each one individually (the snapshot is per-counter
// consistent, not cross-counter atomic — the same contract as the
// map's Stats). The zero value is ready to use.
type Counters struct {
	ConnsAccepted obs.Counter
	ConnsActive   obs.Counter

	FramesIn  obs.Counter
	FramesOut obs.Counter
	BytesIn   obs.Counter
	BytesOut  obs.Counter

	Gets      obs.Counter // GET requests served
	GetMisses obs.Counter
	Sets      obs.Counter
	Dels      obs.Counter
	DelMisses obs.Counter
	MGets     obs.Counter // MGET requests served
	MGetKeys  obs.Counter // keys across all MGETs
	StatsOps  obs.Counter

	ErrDecode obs.Counter // framing/parse failures (connection-fatal)
	ErrTooBig obs.Counter // frames over the size guard (connection-fatal)
	ErrSet    obs.Counter // backend Set failures
	ErrDel    obs.Counter // backend Delete failures

	// Per-op service time, measured around the backend call: GetNanos
	// records each coalesced GET batch (the GET path's unit of service —
	// one backend call answers the whole run), the others record each
	// request.
	GetNanos  obs.Histogram
	SetNanos  obs.Histogram
	DelNanos  obs.Histogram
	MGetNanos obs.Histogram

	// ConnNanos records each connection's lifetime at close; DrainNanos
	// records each Shutdown's drain duration.
	ConnNanos  obs.Histogram
	DrainNanos obs.Histogram

	// BatchSizes records the key count of every server-side GetBatch
	// call (coalesced GET runs and MGETs): how much per-connection read
	// batching actually coalesces under the live traffic mix.
	BatchSizes obs.Histogram
}

// noteBatch records one coalesced GetBatch call of n keys.
//
//repro:noalloc
func (c *Counters) noteBatch(n int) {
	if n <= 0 {
		return
	}
	c.BatchSizes.Record(int64(n))
}

// register adds every instrument to r under its repro_server_* name,
// plus an uptime gauge counted from start.
func (c *Counters) register(r *obs.Registry, start time.Time) {
	r.Gauge("repro_server_uptime_seconds", "seconds since the server was created", func() float64 { return time.Since(start).Seconds() })
	r.Counter("repro_server_conns_accepted_total", "connections accepted", &c.ConnsAccepted)
	r.Gauge("repro_server_conns_active", "connections currently open", func() float64 { return float64(c.ConnsActive.Load()) })
	r.Counter("repro_server_frames_in_total", "request frames decoded", &c.FramesIn)
	r.Counter("repro_server_frames_out_total", "reply frames written", &c.FramesOut)
	r.Counter("repro_server_bytes_in_total", "request bytes read", &c.BytesIn)
	r.Counter("repro_server_bytes_out_total", "reply bytes written", &c.BytesOut)
	r.Counter("repro_server_gets_total", "GET requests served", &c.Gets)
	r.Counter("repro_server_get_misses_total", "GET/MGET keys not found", &c.GetMisses)
	r.Counter("repro_server_sets_total", "SET requests served", &c.Sets)
	r.Counter("repro_server_dels_total", "DEL requests served", &c.Dels)
	r.Counter("repro_server_del_misses_total", "DEL requests for absent keys", &c.DelMisses)
	r.Counter("repro_server_mgets_total", "MGET requests served", &c.MGets)
	r.Counter("repro_server_mget_keys_total", "keys across all MGET requests", &c.MGetKeys)
	r.Counter("repro_server_stats_total", "STATS requests served", &c.StatsOps)
	r.Counter("repro_server_err_decode_total", "framing/parse failures", &c.ErrDecode)
	r.Counter("repro_server_err_too_big_total", "frames over the size guard", &c.ErrTooBig)
	r.Counter("repro_server_err_set_total", "backend Set failures", &c.ErrSet)
	r.Counter("repro_server_err_del_total", "backend Delete failures", &c.ErrDel)
	r.Histogram("repro_server_get_seconds", "coalesced GET batch service time (backend call)", &c.GetNanos, 1e-9)
	r.Histogram("repro_server_set_seconds", "SET service time (backend call, includes WAL commit)", &c.SetNanos, 1e-9)
	r.Histogram("repro_server_del_seconds", "DEL service time (backend call, includes WAL commit)", &c.DelNanos, 1e-9)
	r.Histogram("repro_server_mget_seconds", "MGET service time (backend call)", &c.MGetNanos, 1e-9)
	r.Histogram("repro_server_batch_size", "keys per server-side GetBatch call", &c.BatchSizes, 1)
	r.Histogram("repro_server_conn_seconds", "connection lifetimes", &c.ConnNanos, 1e-9)
	r.Histogram("repro_server_drain_seconds", "Shutdown drain durations", &c.DrainNanos, 1e-9)
}
