package main

// The traced run. It rebuilds served's stack in-process from public
// constructors — repro.OpenOf with served's default flags and
// WithDurableMetrics, Map().SetMetrics, behind wire.NewServer — and
// wraps a span around each call into a layer from this file: the
// client's Queue*/Flush/Recv* calls and the backend's DurableMap
// calls. Per-layer counts come from the program's own Stats(),
// Metrics() and Counters() accessors; nothing inside the program is
// instrumented for the benchmark.
//
// A backend span is linked to the client burst that caused it through
// the key that starts the backend call: the client registers those keys
// before it flushes a burst. A burst whose keys another connection's
// in-flight burst also registered, or whose backend calls do not cover
// all of its keys (a burst the server split over two socket reads), is
// not linked; the span dump reports aggregate self time over all bursts
// alongside the per-burst median, and the share of bursts linked.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/choice"
	"repro/internal/cmap"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wire"
)

// span is one timed call; the dump writes them as JSON lines.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: root; -1: a backend span not linked to a burst
	Burst  int64  `json:"burst"`  // the client burst's root span id; -1 when unlinked
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds each span buffer; later spans are counted, not kept.
const spanCap = 1 << 16

type spanBuf struct {
	spans   []span
	dropped int64
}

func (b *spanBuf) add(s span) {
	if len(b.spans) < spanCap {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
}

// burstAcc accumulates the backend time linked to one burst.
type burstAcc struct {
	ns        int64
	keys      int
	ambiguous bool
}

type link struct {
	burst int64
	n     int32 // registrations outstanding
}

// tracer holds the backend-side spans and the key → burst links.
type tracer struct {
	mu       sync.Mutex
	links    map[string]link
	acc      map[int64]*burstAcc
	backend  spanBuf
	nextID   int64
	unlinked int64 // backend calls no burst could claim
	putNs    []uint32
	delNs    []uint32
	gbNs     int64 // GetBatch time
	gbKeys   int64
}

func newTracer() *tracer {
	return &tracer{links: make(map[string]link), acc: make(map[int64]*burstAcc), nextID: 1 << 62}
}

func (t *tracer) register(burst int64, key string) {
	l, ok := t.links[key]
	switch {
	case !ok:
		l = link{burst: burst}
	case l.burst != burst:
		if a := t.acc[l.burst]; a != nil {
			a.ambiguous = true
		}
		t.acc[burst].ambiguous = true
		l.burst = -1
	}
	l.n++
	t.links[key] = l
}

func (t *tracer) release(key string) {
	l := t.links[key]
	if l.n--; l.n <= 0 {
		delete(t.links, key)
	} else {
		t.links[key] = l
	}
}

// backendSpan records one backend call that handled nkeys keys, the
// first being key.
func (t *tracer) backendSpan(name string, key []byte, nkeys int, start, end int64) {
	t.mu.Lock()
	burst := int64(-1)
	if l, ok := t.links[string(key)]; ok && l.burst >= 0 {
		burst = l.burst
		a := t.acc[burst]
		a.ns += end - start
		a.keys += nkeys
	} else {
		t.unlinked++
	}
	t.nextID++
	t.backend.add(span{Name: name, ID: t.nextID, Parent: burst, Burst: burst, Start: start, End: end})
	d := uint32(min(end-start, int64(^uint32(0))))
	switch name {
	case "durable.put":
		t.putNs = append(t.putNs, d)
	case "durable.delete":
		t.delNs = append(t.delNs, d)
	case "cmap.getbatch":
		t.gbNs += end - start
		t.gbKeys += int64(nkeys)
	}
	t.mu.Unlock()
}

// connTrace is one connection's client-side spans and aggregates.
type connTrace struct {
	t       *tracer
	spans   spanBuf
	id      int64 // last span id issued
	burst   int64 // current burst's root span id
	keys    []string
	queueNs int64
	recvNs  int64
	recvOps int64
	ops     int64
	waitNs  int64 // all bursts: flush to first reply
	backNs  int64 // all bursts: linked backend time
	bursts  int64
	selfUs  []float64 // linked bursts: wait minus backend time
}

func newConnTrace(t *tracer, conn int) *connTrace {
	return &connTrace{t: t, id: int64(conn+1) << 48}
}

// begin registers the keys at which a backend call can start: every
// write, and the first GET of each run of GETs (the server coalesces a
// run into one GetBatch).
func (ct *connTrace) begin(c *client) {
	ct.id++
	ct.burst = ct.id
	ct.keys = ct.keys[:0]
	for i, o := range c.ops {
		if o.kind == opGet && i > 0 && c.ops[i-1].kind == opGet {
			continue
		}
		ct.keys = append(ct.keys, string(appendKey(nil, o.idx, o.absent)))
	}
	ct.t.mu.Lock()
	ct.t.acc[ct.burst] = &burstAcc{}
	for _, k := range ct.keys {
		ct.t.register(ct.burst, k)
	}
	ct.t.mu.Unlock()
}

func (ct *connTrace) end(c *client, t0, tq, tFirst, tEnd int64) {
	n := int64(len(c.ops))
	root := ct.burst
	ct.spans.add(span{Name: "client.burst", ID: root, Burst: root, Start: t0, End: tEnd})
	for _, ch := range []struct {
		name       string
		start, end int64
	}{{"wire.queue", t0, tq}, {"wire.wait", tq, tFirst}, {"wire.recv", tFirst, tEnd}} {
		ct.id++
		ct.spans.add(span{Name: ch.name, ID: ct.id, Parent: root, Burst: root, Start: ch.start, End: ch.end})
	}
	ct.queueNs += tq - t0
	ct.recvNs += tEnd - tFirst
	ct.recvOps += n - 1
	ct.ops += n

	t := ct.t
	t.mu.Lock()
	for _, k := range ct.keys {
		t.release(k)
	}
	a := t.acc[ct.burst]
	delete(t.acc, ct.burst)
	t.mu.Unlock()

	wait := tFirst - tq
	ct.waitNs += wait
	ct.backNs += a.ns
	ct.bursts++
	if !a.ambiguous && int64(a.keys) == n {
		ct.selfUs = append(ct.selfUs, float64(wait-a.ns)/1e3)
	}
}

// backend adapts the durable map to wire.Backend exactly as cmd/served
// does, timing each map call while a tracer is attached.
type backend struct {
	m  *repro.DurableMap[string, []byte]
	tr atomic.Pointer[tracer]
	// keyScratch pools []string conversion buffers for GetBatch.
	keyScratch sync.Pool
}

func (b *backend) Get(key []byte) ([]byte, bool) { return b.m.Get(string(key)) }

func (b *backend) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	skp, _ := b.keyScratch.Get().(*[]string)
	if skp == nil {
		skp = new([]string)
	}
	sk := (*skp)[:0]
	for _, k := range keys {
		sk = append(sk, string(k))
	}
	t0 := nanotime()
	n := b.m.GetBatch(sk, vals[:len(sk)], found[:len(sk)])
	if tr := b.tr.Load(); tr != nil && len(keys) > 0 {
		tr.backendSpan("cmap.getbatch", keys[0], len(keys), t0, nanotime())
	}
	*skp = sk
	b.keyScratch.Put(skp)
	return n
}

func (b *backend) Set(key, val []byte) error {
	k, v := string(key), append([]byte(nil), val...)
	t0 := nanotime()
	err := b.m.Put(k, v)
	if tr := b.tr.Load(); tr != nil {
		tr.backendSpan("durable.put", key, 1, t0, nanotime())
	}
	return err
}

func (b *backend) Delete(key []byte) (bool, error) {
	k := string(key)
	t0 := nanotime()
	ok, err := b.m.Delete(k)
	if tr := b.tr.Load(); tr != nil {
		tr.backendSpan("durable.delete", key, 1, t0, nanotime())
	}
	return ok, err
}

// stack is the in-process serving stack.
type stack struct {
	dm    *repro.DurableMap[string, []byte]
	dmx   *repro.DurableMetrics
	mapMx *cmap.Metrics
	be    *backend
	srv   *wire.Server
	ln    net.Listener
	done  chan error
}

// openDurable opens dir the way served does with its default flags.
func openDurable(dir string, seed uint64) (*repro.DurableMap[string, []byte], *repro.DurableMetrics, error) {
	dmx := repro.NewDurableMetrics()
	dm, err := repro.OpenOf[string, []byte](dir,
		repro.HasherFor[string](), repro.CodecFor[string](), bytesCodec,
		repro.WithShards(16), repro.WithBuckets(1<<12), repro.WithSlots(4),
		repro.WithD(3), repro.WithMaxLoadFactor(0.90), repro.WithSeed(hashSeed(seed)),
		repro.WithWALSync(true), repro.WithDurableMetrics(dmx))
	return dm, dmx, err
}

func openStack(dir string, seed uint64) (*stack, time.Duration, error) {
	t0 := time.Now()
	dm, dmx, err := openDurable(dir, seed)
	recovery := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	s := &stack{dm: dm, dmx: dmx, mapMx: cmap.NewMetrics(), be: &backend{m: dm}, done: make(chan error, 1)}
	dm.Map().SetMetrics(s.mapMx)
	s.srv = wire.NewServer(s.be, wire.Options{IdleTimeout: 5 * time.Minute, WriteTimeout: 30 * time.Second})
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		dm.Close()
		return nil, 0, err
	}
	go func() { s.done <- s.srv.Serve(s.ln) }()
	return s, recovery, nil
}

func (s *stack) close() error {
	err := s.srv.Shutdown(10 * time.Second)
	if serr := <-s.done; err == nil {
		err = serr
	}
	if cerr := s.dm.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedLoad is the in-process run: after warm-up, rounds of a
// spans-off phase then a spans-on phase, interleaved so that garbage
// collection and other slow drifts fall on both sides alike.
type tracedLoad struct {
	offRate, onRate   []float64 // ops/s of each round's phases
	offOps, offAllocs int64     // spans-off phases: ops and heap allocations
	attempted         int64
	tr                *tracer
	conns             []*connTrace
}

const tracedRounds = 3

// runTracedLoad runs the traced rounds for dur in total; before and
// after bracket all of them.
func runTracedLoad(s *stack, w *workload, seed uint64, dur time.Duration, before, after func([]*client)) (*tracedLoad, error) {
	clients, err := dialAll(s.ln.Addr().String(), w, seed)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)
	warm(clients, w.warmBursts)
	tl := &tracedLoad{tr: newTracer()}
	for _, c := range clients {
		tl.conns = append(tl.conns, newConnTrace(tl.tr, c.id))
	}
	phase := dur / (2 * tracedRounds)
	rate := func(r *loadResult) float64 { return frac(float64(r.ops), r.elapsed.Seconds()) }
	before(clients)
	for r := 0; r < tracedRounds; r++ {
		off := timed(clients, phase)
		tl.offRate = append(tl.offRate, rate(off))
		tl.offOps += off.ops
		tl.offAllocs += int64(off.mallocs)
		s.be.tr.Store(tl.tr)
		for i, c := range clients {
			c.tr = tl.conns[i]
		}
		on := timed(clients, phase)
		tl.onRate = append(tl.onRate, rate(on))
		s.be.tr.Store(nil)
		for _, c := range clients {
			c.tr = nil
		}
	}
	after(clients)
	if w.kind == kindWrite {
		parallel(clients, (*client).sweep)
	}
	var res loadResult
	tally(&res, clients)
	if res.failed > 0 {
		return nil, fmt.Errorf("%s traced run: %d operations failed: %v", w.name, res.failed, res.firstErr)
	}
	tl.attempted = res.attempted
	return tl, nil
}

// clientAgg sums the connections' client-side aggregates.
type clientAgg struct {
	queueNs, recvNs, recvOps, ops, bursts int64
	selfUs                                []float64 // linked bursts' server self times
}

// collect folds the connections' aggregates and all spans into the
// dump, whose header gets the burst-linking counts under prefix.
func (tl *tracedLoad) collect(dump *traceDump, prefix string) clientAgg {
	var a clientAgg
	var waitNs, backNs int64
	for _, ct := range tl.conns {
		a.queueNs += ct.queueNs
		a.recvNs += ct.recvNs
		a.recvOps += ct.recvOps
		a.ops += ct.ops
		a.bursts += ct.bursts
		a.selfUs = append(a.selfUs, ct.selfUs...)
		waitNs += ct.waitNs
		backNs += ct.backNs
		dump.add(ct.spans)
	}
	dump.add(tl.tr.backend)
	dump.Header[prefix+"_bursts"] = a.bursts
	dump.Header[prefix+"_bursts_linked"] = len(a.selfUs)
	dump.Header[prefix+"_backend_calls_unlinked"] = tl.tr.unlinked
	dump.Header[prefix+"_aggregate_server_self_us_per_burst"] = frac(float64(waitNs-backNs)/1e3, float64(a.bursts))
	return a
}

// histDelta returns the observations b recorded since snapshot a.
func histDelta(a, b *obs.HistSnapshot) *obs.HistSnapshot {
	d := *b
	for i := range d.Buckets {
		d.Buckets[i] -= a.Buckets[i]
	}
	d.Count -= a.Count
	return &d
}

func snap(h *obs.Histogram) *obs.HistSnapshot {
	var s obs.HistSnapshot
	h.Snapshot(&s)
	return &s
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDump collects what the span dump file holds.
type traceDump struct {
	Header  map[string]any
	Spans   []span
	dropped int64
}

func (d *traceDump) add(b spanBuf) {
	d.Spans = append(d.Spans, b.spans...)
	d.dropped += b.dropped
}

// childCPU measures the CPU split between served and this client over a
// short run against the child process.
func childCPU(w *workload, seed uint64, dur time.Duration, bin, dir string, m metrics) (int64, error) {
	o, err := runServed(w, seed, dur, bin, dir, 1)
	if err != nil {
		return 0, err
	}
	if o.load.failed > 0 {
		return 0, fmt.Errorf("%s child run: %d operations failed: %v", w.name, o.load.failed, o.load.firstErr)
	}
	ops := float64(o.load.ops)
	m.set("served.cpu_us_per_op."+w.name, "us", frac(float64(o.cpuServed.Microseconds()), ops))
	m.set("client.cpu_us_per_op."+w.name, "us", frac(float64(o.load.cpuClient.Microseconds()), ops))
	return o.load.attempted, nil
}

// readPhase measures the wire and cmap layers and snapshot recovery on
// read-burst traffic.
func readPhase(w *workload, seed uint64, dur time.Duration, bin, work string, m metrics, dump *traceDump) (attempted int64, err error) {
	if attempted, err = childCPU(w, seed, dur/3, bin, filepath.Join(work, "read-child"), m); err != nil {
		return 0, err
	}
	dir := filepath.Join(work, "read")
	if err := preload(dir, w, seed); err != nil {
		return 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	s, recovery, err := openStack(dir, seed)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.set("persist.recover_s", "s", recovery.Seconds())
	m.set("cmap.bytes_per_pair", "bytes", frac(float64(ms.HeapAlloc)-float64(heap0), float64(s.dm.Len())))

	nop := func([]*client) {}
	tl, err := runTracedLoad(s, w, seed, 2*dur/3, nop, nop)
	if err != nil {
		s.close()
		return 0, err
	}
	a := tl.collect(dump, "read")
	m.set("wire.client_encode_ns_per_op", "ns", frac(float64(a.queueNs), float64(a.ops)))
	m.set("wire.client_decode_ns_per_op", "ns", frac(float64(a.recvNs), float64(a.recvOps)))
	m.set("wire.server_self_us_per_burst", "us", median(a.selfUs))
	m.set("wire.burst_link_frac", "fraction", frac(float64(len(a.selfUs)), float64(a.bursts)))
	m.set("wire.allocs_per_op", "count", frac(float64(tl.offAllocs), float64(tl.offOps)))
	m.set("trace.overhead_frac", "fraction", 1-frac(median(tl.onRate), median(tl.offRate)))
	m.set("cmap.getbatch_ns_per_key", "ns", frac(float64(tl.tr.gbNs), float64(tl.tr.gbKeys)))
	var bs obs.HistSnapshot
	s.srv.Counters().BatchSizes.Snapshot(&bs)
	m.set("wire.keys_per_getbatch", "keys", frac(float64(s.srv.Counters().Gets.Load()), float64(bs.Count)))

	// Per-key Gets feed the map's sampled which-choice (probe depth)
	// histogram, which GetBatch does not record.
	g := newOpGen(w, seed^0xD1CE, 0, nil)
	var o op
	var kb []byte
	for i := 0; i < 1<<17; i++ {
		g.next(&o)
		kb = appendKey(kb[:0], o.idx, false)
		s.dm.Get(string(kb))
	}
	m.set("cmap.probe_depth_mean", "choices", snap(s.mapMx.ProbeDepth).Mean())
	st := s.dm.Stats()
	m.set("cmap.stash_frac", "fraction", frac(float64(st.Stashed), float64(st.Len)))
	m.set("cmap.load_factor", "fraction", st.Occupancy)
	if err := s.close(); err != nil {
		return 0, err
	}
	os.RemoveAll(dir)
	replayWire(w, seed, dur/6, m)
	return attempted + tl.attempted, nil
}

// replayWire times the server's frame decode (ReadFrame + ParseRequest)
// and reply encode (Append*Reply) off-socket over the workload's own
// request frames.
func replayWire(w *workload, seed uint64, dur time.Duration, m metrics) {
	const frames = 4096
	g := newOpGen(w, seed, 0, nil)
	var in []byte
	ops := make([]op, frames)
	var kb []byte
	for i := range ops {
		g.next(&ops[i])
		kb = appendKey(kb[:0], ops[i].idx, ops[i].absent)
		in = wire.AppendGetRequest(in, kb)
	}
	var val [valueLen]byte
	fillValue(&val, 1)

	var req wire.Request
	var buf []byte
	rd := bytes.NewReader(in)
	br := bufio.NewReaderSize(rd, 64<<10)
	var n int64
	t0 := nanotime()
	for nanotime()-t0 < int64(dur/2) {
		rd.Reset(in)
		br.Reset(rd)
		for {
			payload, nb, err := wire.ReadFrame(br, buf, wire.DefaultMaxFrame)
			buf = nb
			if err == io.EOF {
				break
			}
			if err != nil || wire.ParseRequest(payload, &req) != nil {
				panic(fmt.Sprintf("replaying generated frames: %v", err)) // the frames were built by wire's own encoder
			}
			n++
		}
	}
	m.set("wire.decode_ns_per_frame", "ns", frac(float64(nanotime()-t0), float64(n)))

	var out []byte
	n = 0
	t0 = nanotime()
	for nanotime()-t0 < int64(dur/2) {
		out = out[:0]
		for i := range ops {
			if ops[i].absent {
				out = wire.AppendStatusReply(out, wire.StatusNotFound)
			} else {
				out = wire.AppendValueReply(out, val[:])
			}
		}
		n += frames
	}
	m.set("wire.encode_ns_per_reply", "ns", frac(float64(nanotime()-t0), float64(n)))
}

// writePhase measures the durable map and WAL layers on write-burst
// traffic, and WAL replay on reopening the directory it wrote.
func writePhase(w *workload, seed uint64, dur time.Duration, bin, work string, m metrics, dump *traceDump) (attempted int64, err error) {
	if attempted, err = childCPU(w, seed, dur/3, bin, filepath.Join(work, "write-child"), m); err != nil {
		return 0, err
	}
	dir := filepath.Join(work, "write")
	if err := preload(dir, w, seed); err != nil {
		return 0, err
	}
	s, _, err := openStack(dir, seed)
	if err != nil {
		return 0, err
	}
	// The program's own WAL instruments are read over the traced
	// rounds; spans add two clock reads per write, small against a WAL
	// append.
	wal := s.dmx.WAL
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "wal"))
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	userBytes := func(cs []*client) (n int64) {
		for _, c := range cs {
			n += c.sets*(9+valueLen) + c.dels*9 // appendKey writes 9-byte keys
		}
		return n
	}
	var (
		app0, fs0, cb0   *obs.HistSnapshot
		size0, user0, t0 int64
	)
	var appendMeanNs float64
	before := func(cs []*client) {
		app0, fs0, cb0 = snap(wal.AppendNanos), snap(wal.FsyncNanos), snap(wal.CommitBatch)
		size0, user0, t0 = walSize(), userBytes(cs), nanotime()
	}
	after := func(cs []*client) {
		wall := float64(nanotime() - t0)
		app := histDelta(app0, snap(wal.AppendNanos))
		fs := histDelta(fs0, snap(wal.FsyncNanos))
		cb := histDelta(cb0, snap(wal.CommitBatch))
		m.set("persist.append_us_p50", "us", float64(app.Quantile(0.5))/1e3)
		m.set("persist.fsync_us_p50", "us", float64(fs.Quantile(0.5))/1e3)
		m.set("persist.fsync_us_p99", "us", float64(fs.Quantile(0.99))/1e3)
		m.set("persist.appends_per_fsync", "count", cb.Mean())
		m.set("persist.fsync_busy_frac", "fraction", frac(fs.Sum(), wall))
		m.set("persist.wal_bytes_per_user_byte", "ratio", frac(float64(walSize()-size0), float64(userBytes(cs)-user0)))
		appendMeanNs = app.Mean()
	}
	tl, err := runTracedLoad(s, w, seed, 2*dur/3, before, after)
	if err != nil {
		s.close()
		return 0, err
	}
	tl.collect(dump, "write")
	m.set("durable.put_us_p50", "us", float64(percentile(tl.tr.putNs, 0.5))/1e3)
	m.set("durable.put_us_p99", "us", float64(percentile(tl.tr.putNs, 0.99))/1e3)
	m.set("durable.delete_us_p50", "us", float64(percentile(tl.tr.delNs, 0.5))/1e3)
	var putSum float64
	for _, d := range tl.tr.putNs {
		putSum += float64(d)
	}
	m.set("cmap.put_ns", "ns", frac(putSum, float64(len(tl.tr.putNs)))-appendMeanNs)
	m.set("cmap.resizes", "count", float64(s.dm.Stats().Resizes))
	if err := s.close(); err != nil {
		return 0, err
	}

	// Reopen without a checkpoint: recovery replays everything the
	// phase logged.
	dm, dmx, err := openDurable(dir, seed)
	if err != nil {
		return 0, err
	}
	m.set("persist.replay_records", "count", float64(dmx.WAL.ReplayRecords.Load()))
	if err := dm.Close(); err != nil {
		return 0, err
	}
	os.RemoveAll(dir)
	return attempted + tl.attempted, nil
}

// writeDump writes the spans as JSON lines after a header line.
func writeDump(path string, d *traceDump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(d.Header); err != nil {
		f.Close()
		return err
	}
	for i := range d.Spans {
		if err := enc.Encode(&d.Spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// paperPhase measures the placement layers on the Table 1 cells, one
// goroutine, so per-ball times are not divided among workers.
func paperPhase(seed uint64, dur time.Duration, m metrics, dump *traceDump) (balls int64) {
	type acc struct{ ns, balls int64 }
	var draw, place [2]acc // [0] fully random, [1] double hashing
	var run acc
	var spans spanBuf
	id := int64(3) << 60
	note := func(name string, t0, t1 int64) {
		id++
		spans.add(span{Name: name, ID: id, Start: t0, End: t1})
	}
	slice := int64(dur / 3)
	buf := make([]uint32, 256*4)
	for phase := 0; phase < 3; phase++ {
		start := nanotime()
		for i := 0; nanotime()-start < slice; i++ {
			c := paperCells[i%len(paperCells)]
			h := i % 2 // paperCells alternate fully random, double hashing
			s := mix(seed ^ mix(uint64(i)<<2|uint64(phase)))
			var gen engine.Generator
			if c.h == repro.DoubleHash {
				gen = choice.NewDoubleHash(paperN, c.d, rng.NewXoshiro256(s))
			} else {
				gen = choice.NewFullyRandom(paperN, c.d, rng.NewXoshiro256(s))
			}
			switch phase {
			case 0:
				b := buf[:256*c.d]
				t0 := nanotime()
				for k := 0; k < paperN/256; k++ {
					gen.DrawBatch(b, 256)
				}
				t1 := nanotime()
				note("choice.drawbatch", t0, t1)
				draw[h].ns += t1 - t0
				draw[h].balls += paperN
			case 1:
				p := engine.NewPlacer(gen, engine.TieRandom, rng.NewXoshiro256(^s))
				t0 := nanotime()
				p.PlaceN(paperN)
				t1 := nanotime()
				note("engine.placen", t0, t1)
				place[h].ns += t1 - t0
				place[h].balls += paperN
			case 2:
				t0 := nanotime()
				repro.Run(repro.Config{N: paperN, D: c.d, Hashing: c.h, Trials: 1, Seed: s, Workers: 1})
				t1 := nanotime()
				note("core.run", t0, t1)
				run.ns += t1 - t0
				run.balls += paperN
			}
		}
	}
	per := func(a acc) float64 { return frac(float64(a.ns), float64(a.balls)) }
	m.set("choice.draw_ns_per_ball.fr", "ns", per(draw[0]))
	m.set("choice.draw_ns_per_ball.dh", "ns", per(draw[1]))
	m.set("engine.place_ns_per_ball.fr", "ns", per(place[0]))
	m.set("engine.place_ns_per_ball.dh", "ns", per(place[1]))
	m.set("core.overhead_ns_per_ball", "ns", per(run)-(per(place[0])+per(place[1]))/2)
	dump.add(spans)
	return place[0].balls + place[1].balls + run.balls
}

// traceRun measures every layer: the named workload's phase runs for
// dur, the others for a quarter of it, so one traced run of any
// workload reports the full per-layer set.
func traceRun(w *workload, seed uint64, dur time.Duration, bin, work, out string, info map[string]any) (*result, error) {
	short := max(dur/4, time.Second)
	phaseDur := func(k workloadKind) time.Duration {
		if w.kind == k {
			return dur
		}
		return short
	}
	dump := &traceDump{Header: map[string]any{"workload": w.name, "seed": seed}}
	m := metrics{}
	reads, err := readPhase(workloads[0], seed, phaseDur(kindRead), bin, work, m, dump)
	if err != nil {
		return nil, err
	}
	writes, err := writePhase(workloads[1], seed, phaseDur(kindWrite), bin, work, m, dump)
	if err != nil {
		return nil, err
	}
	balls := paperPhase(seed, phaseDur(kindPaper), m, dump)

	dump.Header["dropped_spans"] = dump.dropped
	dump.Header["note"] = "per-burst server self time needs every backend call of a burst linked to it; " +
		"*_aggregate_server_self_us_per_burst covers all bursts, linked or not"
	path := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
	if err := writeDump(path, dump); err != nil {
		return nil, err
	}
	info["span_dump"] = path
	info["served_gomaxprocs"] = info["nproc"]
	// Every traced phase fails the run on any wrong reply, so reaching
	// here means every checked operation succeeded.
	return &result{Correct: true, Attempted: reads + writes + balls, Metrics: m}, nil
}
