// Command loadgen drives a key-value store with the paper's workload
// shape: key ids uniform over -keys, drawn from a seeded xoshiro stream,
// and a Get/Delete/Put mix (-read, -delete). One op loop (worker.run)
// drives one of two backends:
//
//   - in process (the default): a typed sharded multiple-choice map
//     (internal/cmap) with uint64, string or struct keys (-keytype),
//     optional online resize (-grow) and a background migrator
//     (-drain). After the run it prints the occupancy figures the
//     paper's load tables predict: shard skew, stash pressure, resize
//     progress and the aggregated bucket-load histogram.
//   - -net addr: a served instance over the wire protocol, one
//     connection per worker, with "key-%016x" keys and 32-byte values.
//
// -mget batches reads through GetBatch / MGET. -rate runs open loop:
// ops are scheduled at a global rate and latency is measured from each
// op's scheduled arrival, so a saturated store shows its queueing delay.
// Every backend call, a single op or a whole batch, is one sample in a
// fixed-bucket histogram; -json writes the summary. -verify gives each
// worker a disjoint key range and a shadow map, checks every reply
// against it, sweeps every live key through the batch get at the end
// and, in process, requires Len to equal the live shadow count; any
// divergence fails the run (exit 1). Flags that shape the in-process
// map are rejected with -net (exit 2).
//
// Examples:
//
//	loadgen                                  # defaults: 16 shards, 75% reads
//	loadgen -read 0.95 -delete 0 -mget 32    # read-heavy, batched gets
//	loadgen -keys 1024 -shards 4             # hot-key shard contention
//	loadgen -keytype string -buckets 256 -grow 0.75 -verify
//	loadgen -net 127.0.0.1:4680 -workers 8 -verify
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/rng"
)

// config is the parsed command line.
type config struct {
	workers, ops, keys, mget int
	read, del, rate          float64
	seed                     uint64
	verify                   bool
	jsonPath, net            string

	keytype                                 string
	shards, buckets, slots, d, stash, batch int
	grow                                    float64
	drain                                   bool
}

// mapOnly names the flags that shape the in-process map; -net rejects them.
var mapOnly = []string{"shards", "buckets", "slots", "d", "stash", "grow", "migrate-batch", "drain", "keytype"}

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if _, err := run(cfg, newBackend(cfg), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// parseArgs parses and validates the command line, reporting any
// problem on stderr; an error means exit status 2.
func parseArgs(args []string, stderr io.Writer) (c config, err error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.workers, "workers", 0, "concurrent workers, one connection each with -net (0 = GOMAXPROCS)")
	fs.IntVar(&c.ops, "ops", 2_000_000, "total operations across all workers")
	fs.IntVar(&c.keys, "keys", 0, "key-space size (0 = 75% of initial slot capacity, 65536 with -net)")
	fs.Float64Var(&c.read, "read", 0.75, "fraction of ops that are Gets")
	fs.Float64Var(&c.del, "delete", 0.05, "fraction of ops that are Deletes")
	fs.IntVar(&c.mget, "mget", 0, "batch Gets, this many keys per GetBatch/MGET call (0 = per-key Gets)")
	fs.Float64Var(&c.rate, "rate", 0, "open-loop target ops/sec across all workers (0 = closed loop)")
	fs.BoolVar(&c.verify, "verify", false, "disjoint per-worker key ranges + shadow maps; fail on any lost/duplicated/corrupted key")
	fs.Uint64Var(&c.seed, "seed", 1, "base random seed")
	fs.StringVar(&c.jsonPath, "json", "", "write a machine-readable throughput/latency summary to this file")
	fs.StringVar(&c.net, "net", "", "drive a served instance at this address instead of the in-process map")
	fs.StringVar(&c.keytype, "keytype", "uint64", "in-process key kind: uint64, string or struct")
	fs.IntVar(&c.shards, "shards", 16, "shard count (rounded up to a power of two)")
	fs.IntVar(&c.buckets, "buckets", 1<<12, "initial buckets per shard")
	fs.IntVar(&c.slots, "slots", 4, "slots per bucket")
	fs.IntVar(&c.d, "d", 3, "candidate buckets per key")
	fs.IntVar(&c.stash, "stash", 32, "overflow stash capacity per shard")
	fs.Float64Var(&c.grow, "grow", 0, "max load factor enabling online resize (0 = fixed capacity)")
	fs.IntVar(&c.batch, "migrate-batch", 32, "entries migrated per Put/Delete (and per drainer step) during a resize")
	fs.BoolVar(&c.drain, "drain", false, "run a background migration drainer alongside the workers (needs -grow)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	var stray []string
	if c.net != "" {
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(mapOnly, f.Name) {
				stray = append(stray, "-"+f.Name)
			}
		})
	}
	switch {
	case len(stray) > 0:
		err = fmt.Errorf("%s shape the in-process map and do not apply with -net", strings.Join(stray, ", "))
	case c.workers < 0 || c.ops < 0 || c.keys < 0 || c.mget < 0 || c.rate < 0:
		err = errors.New("need -workers, -ops, -keys, -mget and -rate >= 0")
	case c.read < 0 || c.del < 0 || c.read+c.del > 1:
		err = errors.New("need -read >= 0, -delete >= 0 and -read + -delete <= 1")
	case c.batch < 1:
		err = errors.New("need -migrate-batch >= 1")
	case c.net == "" && !slices.Contains([]string{"uint64", "string", "struct"}, c.keytype):
		err = fmt.Errorf("unknown -keytype %q (want uint64, string or struct)", c.keytype)
	}
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return c, err
	}
	if c.workers == 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	if c.keys == 0 {
		c.keys = 1 << 16
		if c.net == "" {
			c.keys = max(c.shards*c.buckets*c.slots*3/4, 1)
		}
	}
	return c, nil
}

// fiveTuple is the struct key kind: a padding-free 16-byte packet
// 5-tuple, hashed by the byte-view hasher. SrcIP/DstIP carry all 64 bits
// of the key id, so the mapping is injective (required by the -verify
// oracle).
type fiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint16
	Zone             uint16
}

// newBackend builds the backend a validated config names.
func newBackend(cfg config) backend {
	switch {
	case cfg.net != "":
		return netBackend{addr: cfg.net}
	case cfg.keytype == "string":
		return newMapBackend(cfg, keyed.ForType[string](), func(id uint64) string { return fmt.Sprintf("k%016x", id) })
	case cfg.keytype == "struct":
		return newMapBackend(cfg, keyed.ForType[fiveTuple](), func(id uint64) fiveTuple {
			return fiveTuple{SrcIP: uint32(id), DstIP: uint32(id >> 32), SrcPort: uint16(id), DstPort: uint16(id >> 16), Proto: 6}
		})
	}
	return newMapBackend(cfg, keyed.Uint64, func(id uint64) uint64 { return id })
}

// result is one run's outcome, including the -verify oracle's finding.
type result struct {
	ops         int              // operations issued (batched reads count per key)
	elapsed     time.Duration    // the worker phase only
	lat         obs.HistSnapshot // one sample per backend call
	rejected    int64            // legal capacity rejections (Put false, key absent)
	divergences int64            // mid-run replies that disagreed with a shadow
	first       string           // the first of them
	live        int              // union size of the final shadows
	lost        int              // final sweep: shadow keys the backend dropped
	corrupted   int              // final sweep: shadow keys with the wrong value
	lenDelta    int              // resident pairs − live, when the backend counts them
}

func (r *result) verdict() error {
	switch {
	case r.divergences > 0:
		return fmt.Errorf("VERIFY FAILED: %d mid-run divergences, first: %s", r.divergences, r.first)
	case r.lost > 0 || r.corrupted > 0:
		return fmt.Errorf("VERIFY FAILED: final sweep found %d keys lost, %d corrupted", r.lost, r.corrupted)
	case r.lenDelta != 0:
		return fmt.Errorf("VERIFY FAILED: Len is %+d vs the %d shadow keys (lost or duplicated entries)", r.lenDelta, r.live)
	}
	return nil
}

// run drives cfg's workload against be, prints the summary to out and
// writes -json. It returns the result, and an error if a backend call
// failed or verification did.
func run(cfg config, be backend, out io.Writer) (res result, err error) {
	mode := "get"
	if cfg.mget > 0 {
		mode = fmt.Sprintf("mget-%d", cfg.mget)
	}
	fmt.Fprintf(out, "%s: %d ops on %d workers over %d keys (%.0f%% get / %.0f%% delete / %.0f%% put), mode %s, rate %v, verify %v\n",
		be.name(), cfg.ops, cfg.workers, cfg.keys, cfg.read*100, cfg.del*100, (1-cfg.read-cfg.del)*100, mode, cfg.rate, cfg.verify)

	var lat obs.Histogram
	ws := make([]*worker, 0, cfg.workers)
	defer func() {
		for _, w := range ws {
			w.s.close()
		}
	}()
	for i := 0; i < cfg.workers; i++ {
		s, err := be.session(i)
		if err != nil {
			be.quiesce()
			return res, err
		}
		ws = append(ws, newWorker(cfg, i, s, &lat))
	}
	start := time.Now()
	errs := make(chan error, len(ws))
	for _, w := range ws {
		go func() { errs <- w.run(start) }()
	}
	for range ws {
		if werr := <-errs; err == nil {
			err = werr
		}
	}
	res.elapsed = time.Since(start)
	resident := be.quiesce()
	if err != nil {
		return res, err
	}
	lat.Snapshot(&res.lat)
	for _, w := range ws {
		res.ops += w.ops
		res.rejected += w.rejected
		res.divergences += w.divergences
		res.first = cmp.Or(res.first, w.first)
		if cfg.verify {
			res.live += len(w.shadow)
			if err := w.sweep(&res); err != nil {
				return res, fmt.Errorf("verify sweep: %w", err)
			}
		}
	}
	if cfg.verify && resident >= 0 {
		res.lenDelta = resident - res.live
	}

	opsPerSec := float64(res.ops) / res.elapsed.Seconds()
	fmt.Fprintf(out, "\n%d ops in %v  →  %.2f Mops/sec (GOMAXPROCS=%d)\n",
		res.ops, res.elapsed.Round(time.Millisecond), opsPerSec/1e6, runtime.GOMAXPROCS(0))
	us := func(q float64) float64 { return float64(res.lat.Quantile(q)) / 1e3 }
	fmt.Fprintf(out, "latency per backend call: p50 %.2fµs, p90 %.2fµs, p99 %.2fµs, p999 %.2fµs, mean %.2fµs over %d calls\n",
		us(0.50), us(0.90), us(0.99), us(0.999), res.lat.Mean()/1e3, res.lat.Count)
	if res.rejected > 0 {
		fmt.Fprintf(out, "rejected puts (all candidates + stash full): %d\n", res.rejected)
	}
	if cfg.verify {
		fmt.Fprintf(out, "verify: %d lost, %d corrupted, %d mid-run divergences (%d live keys swept)\n",
			res.lost, res.corrupted, res.divergences, res.live)
	}
	be.report(out)

	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(map[string]any{
			"backend": be.name(), "workers": cfg.workers, "ops": res.ops, "mode": mode,
			"rate_target": cfg.rate, "elapsed_sec": res.elapsed.Seconds(), "ops_per_sec": opsPerSec,
			"p50_us": us(0.50), "p90_us": us(0.90), "p99_us": us(0.99), "p999_us": us(0.999),
			"mean_us": res.lat.Mean() / 1e3, "max_us": us(1), "samples": res.lat.Count,
			"verified": cfg.verify, "lost": res.lost, "corrupted": res.corrupted,
			"divergences": res.divergences, "len_delta": res.lenDelta,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			return res, fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(out, "json summary → %s\n", cfg.jsonPath)
	}
	return res, res.verdict()
}

// worker is one goroutine's share of the workload. Everything the op
// loop touches is allocated here, before the first op.
type worker struct {
	s          session
	src        rng.Source
	ops        int
	base, span uint64 // key ids are drawn from [base, base+span)
	read, del  float64
	mget       int
	// Open-loop schedule: op n is due at start + offset + n*interval
	// (zero interval = closed loop).
	interval, offset time.Duration
	lat              *obs.Histogram // shared across workers; Record is atomic

	ids   []uint64 // pending read batch (mget > 0)
	vals  []uint64
	found []bool

	shadow                map[uint64]uint64 // -verify: key id → last stored value
	rejected, divergences int64
	first                 string // the first divergence
}

// newWorker sets up worker i: its share of the ops (the remainder goes
// one each to the first workers, so exactly cfg.ops run), its seeded
// stream, and under -verify its own key range and shadow map.
func newWorker(cfg config, i int, s session, lat *obs.Histogram) *worker {
	w := &worker{
		s: s, lat: lat, read: cfg.read, del: cfg.del, mget: cfg.mget,
		src:  rng.NewXoshiro256(rng.Mix64(cfg.seed + uint64(i)*0x9E3779B97F4A7C15)),
		ops:  cfg.ops / cfg.workers,
		span: uint64(cfg.keys),
	}
	if i < cfg.ops%cfg.workers {
		w.ops++
	}
	if cfg.verify {
		w.span = max(uint64(cfg.keys/cfg.workers), 1)
		w.base = uint64(i) * w.span
		w.shadow = make(map[uint64]uint64, min(w.span, uint64(w.ops)))
	}
	if cfg.mget > 0 {
		w.ids = make([]uint64, 0, cfg.mget)
		w.vals = make([]uint64, cfg.mget)
		w.found = make([]bool, cfg.mget)
	}
	if cfg.rate > 0 {
		w.interval = time.Duration(float64(cfg.workers) / cfg.rate * float64(time.Second))
		w.offset = time.Duration(float64(i) / cfg.rate * float64(time.Second))
	}
	return w
}

// run is the op loop: ops draws of a key id and an op from the
// worker's stream, each op one timed backend call (batched reads share
// the call that flushes them). The loop is what the reported
// throughput measures, so it must not allocate; the shadow checks it
// calls only run under -verify.
//
//repro:noalloc
func (w *worker) run(start time.Time) error {
	for i := 0; i < w.ops; i++ {
		var due time.Time
		if w.interval > 0 {
			due = start.Add(w.offset + time.Duration(i)*w.interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		id := w.base + w.src.Uint64()%w.span
		switch p := rng.Float64(w.src); {
		case p < w.read && w.mget > 0:
			w.ids = append(w.ids, id)
			if len(w.ids) == w.mget {
				if err := w.flush(due); err != nil {
					return err
				}
			}
		case p < w.read:
			t0 := time.Now()
			val, ok, err := w.s.get(id)
			if err != nil {
				return err
			}
			w.record(due, t0)
			if w.shadow != nil {
				w.checkGet(id, val, ok)
			}
		case p < w.read+w.del:
			t0 := time.Now()
			present, err := w.s.del(id)
			if err != nil {
				return err
			}
			w.record(due, t0)
			if w.shadow != nil {
				w.checkDelete(id, present)
			}
		default:
			t0 := time.Now()
			stored, err := w.s.put(id, uint64(i))
			if err != nil {
				return err
			}
			w.record(due, t0)
			w.notePut(id, uint64(i), stored)
		}
	}
	return w.flush(time.Time{})
}

// flush resolves the pending read batch through one batch-get call.
//
//repro:noalloc
func (w *worker) flush(due time.Time) error {
	n := len(w.ids)
	if n == 0 {
		return nil
	}
	t0 := time.Now()
	if err := w.s.getBatch(w.ids, w.vals[:n], w.found[:n]); err != nil {
		return err
	}
	w.record(due, t0)
	if w.shadow != nil {
		for j, id := range w.ids {
			w.checkGet(id, w.vals[j], w.found[j])
		}
	}
	w.ids = w.ids[:0]
	return nil
}

// record adds one call's latency: from its scheduled arrival when open
// loop (due set), else from its send.
//
//repro:noalloc
func (w *worker) record(due, t0 time.Time) {
	if due.IsZero() {
		due = t0
	}
	w.lat.Record(time.Since(due).Nanoseconds())
}

func (w *worker) checkGet(id, val uint64, ok bool) {
	want, resident := w.shadow[id]
	if ok != resident || (ok && val != want) {
		w.diverge("get %#x = (%d, %v), shadow (%d, %v)", id, val, ok, want, resident)
	}
}

func (w *worker) checkDelete(id uint64, present bool) {
	if _, resident := w.shadow[id]; present != resident {
		w.diverge("delete %#x: present %v, shadow %v", id, present, resident)
	}
	delete(w.shadow, id)
}

// notePut applies a put to the shadow; a rejected put is a legal
// capacity rejection unless the key was resident.
func (w *worker) notePut(id, val uint64, stored bool) {
	switch _, resident := w.shadow[id]; {
	case stored && w.shadow != nil:
		w.shadow[id] = val
	case !stored && resident:
		w.diverge("put %#x rejected a resident key", id)
	case !stored:
		w.rejected++
	}
}

func (w *worker) diverge(format string, args ...any) {
	if w.divergences == 0 {
		w.first = fmt.Sprintf(format, args...)
	}
	w.divergences++
}

// sweep re-reads every shadow pair through the backend's batch get and
// counts lost (absent) and corrupted (wrong value) keys into res.
func (w *worker) sweep(res *result) error {
	const batch = 128 // keys per call, within any server's MGET bound
	ids := slices.Collect(maps.Keys(w.shadow))
	vals := make([]uint64, len(ids))
	found := make([]bool, len(ids))
	for lo := 0; lo < len(ids); lo += batch {
		hi := min(lo+batch, len(ids))
		if err := w.s.getBatch(ids[lo:hi], vals[lo:hi], found[lo:hi]); err != nil {
			return err
		}
	}
	for j, id := range ids {
		switch {
		case !found[j]:
			res.lost++
		case vals[j] != w.shadow[id]:
			res.corrupted++
		}
	}
	return nil
}
