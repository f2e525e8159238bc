package main

// The closed-loop load generator. Each connection queues a burst of
// requests, flushes it, and receives and checks every reply before it
// generates the next burst. The same loop drives the served child
// process (spans off) and the in-process stack of the traced run.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/wire"
)

// epoch anchors nanotime.
var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds since epoch.
func nanotime() int64 { return int64(time.Since(epoch)) }

// recorder gathers one connection's timed-phase latencies, grouped by
// the window in which each op completed.
type recorder struct {
	start, window int64      // ns: phase start and window width
	win           [][]uint32 // per window: latencies (ns) of the ops completed in it
	late          []uint32   // ops completed after the last window
}

func newRecorder(start int64, dur time.Duration, windows int) *recorder {
	return &recorder{start: start, window: int64(dur) / int64(windows), win: make([][]uint32, windows)}
}

func (r *recorder) add(lat, done int64) {
	v := uint32(min(lat, int64(^uint32(0))))
	if i := (done - r.start) / r.window; i >= 0 && i < int64(len(r.win)) {
		r.win[i] = append(r.win[i], v)
	} else {
		r.late = append(r.late, v)
	}
}

// windows is how many windows a timed phase is split into. The
// end-to-end figures are medians over windows — the typical window —
// so a stall of the shared machine in a few windows does not move
// them; each window still holds enough samples that its p90 has well
// over ten beyond it.
const windows = 10

// summary is a timed phase's figures: medians over windows of the
// per-second completion rate and of latency quantiles in microseconds.
type summary struct {
	rate, p50us, p90us, p99us float64
	rates                     []float64 // each window's rate
}

// windowSummary summarizes per-window latencies; each op counts scale
// towards the rate.
func windowSummary(win [][]uint32, window time.Duration, scale float64) summary {
	var rates, p50s, p90s, p99s []float64
	for _, w := range win {
		rates = append(rates, float64(len(w))*scale/window.Seconds())
		if len(w) > 0 {
			p50s = append(p50s, float64(percentile(w, 0.50))/1e3)
			p90s = append(p90s, float64(percentile(w, 0.90))/1e3)
			p99s = append(p99s, float64(percentile(w, 0.99))/1e3)
		}
	}
	return summary{median(rates), median(p50s), median(p90s), median(p99s), rates}
}

// client is one connection's state: its op stream, its shadow of the
// keys it owns (write-burst), and its correctness tally.
type client struct {
	id      int
	w       *workload
	seed    uint64
	cl      *wire.Client
	gen     *opGen
	present []bool   // write-burst shadow: key gen.lo+i is stored
	ver     []uint64 // write-burst shadow: version of key gen.lo+i's value
	ops     []op
	kbuf    []byte
	val     [valueLen]byte
	exp     [valueLen]byte
	tr      *connTrace // nil: spans off

	attempted, failed int64
	sets, dels        int64 // acknowledged writes, for the WAL's bytes-per-user-byte
	firstErr          error
	dead              bool // the connection failed; the loop stops
}

func newClient(id int, w *workload, seed uint64, cl *wire.Client, zipf []float64) *client {
	c := &client{id: id, w: w, seed: seed, cl: cl, gen: newOpGen(w, seed, id, zipf), ops: make([]op, w.burst)}
	if w.kind == kindWrite {
		n := c.gen.n
		c.present, c.ver = make([]bool, n), make([]uint64, n)
		for i := uint32(0); i < n; i++ {
			c.present[i], c.ver[i] = true, preloadVersion(seed, c.gen.lo+i)
		}
	}
	return c
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// burst runs one closed-loop burst, recording into rec when non-nil.
func (c *client) burst(rec *recorder) {
	ops := c.ops
	for i := range ops {
		c.gen.next(&ops[i])
	}
	c.attempted += int64(len(ops))
	if c.tr != nil {
		c.tr.begin(c)
	}
	t0 := nanotime()
	var err error
	for i := range ops {
		o := &ops[i]
		c.kbuf = appendKey(c.kbuf[:0], o.idx, o.absent)
		switch o.kind {
		case opGet:
			err = c.cl.QueueGet(c.kbuf)
		case opSet:
			fillValue(&c.val, o.ver)
			err = c.cl.QueueSet(c.kbuf, c.val[:])
		case opDel:
			err = c.cl.QueueDelete(c.kbuf)
		}
		if err != nil {
			break
		}
	}
	tq := nanotime()
	if err == nil {
		err = c.cl.Flush()
	}
	if err != nil {
		c.dropConn(len(ops), err)
		return
	}
	var tFirst int64
	for i := range ops {
		if err := c.recv(&ops[i]); err != nil {
			var re wire.RemoteError
			if !errors.As(err, &re) {
				c.dropConn(len(ops)-i, err)
				return
			}
			c.fail(err)
		}
		t := nanotime()
		if i == 0 {
			tFirst = t
		}
		if rec != nil {
			rec.add(t-tq, t)
		}
	}
	if c.tr != nil {
		c.tr.end(c, t0, tq, tFirst, nanotime())
	}
}

// dropConn counts the burst's unanswered ops as failed and stops the
// connection.
func (c *client) dropConn(unanswered int, err error) {
	c.failed += int64(unanswered)
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("connection %d: %w", c.id, err)
	}
	c.dead = true
}

// recv receives and checks one reply.
func (c *client) recv(o *op) error {
	switch o.kind {
	case opGet:
		val, ok, err := c.cl.RecvGet()
		if err != nil {
			return err
		}
		if o.absent {
			if ok {
				c.fail(fmt.Errorf("GET of absent key %d found a value", o.idx))
			}
			return nil
		}
		fillValue(&c.exp, preloadVersion(c.seed, o.idx))
		if !ok || !bytes.Equal(val, c.exp[:]) {
			c.fail(fmt.Errorf("GET of key %d: found=%v, value differs from its preload value", o.idx, ok))
		}
	case opSet:
		if err := c.cl.RecvSet(); err != nil {
			return err
		}
		i := o.idx - c.gen.lo
		c.present[i], c.ver[i] = true, o.ver
		c.sets++
	case opDel:
		present, err := c.cl.RecvDelete()
		if err != nil {
			return err
		}
		i := o.idx - c.gen.lo
		if present != c.present[i] {
			c.fail(fmt.Errorf("DEL of key %d: present=%v, shadow says %v", o.idx, present, c.present[i]))
		}
		c.present[i] = false
		c.dels++
	}
	return nil
}

// sweep checks, by MGET, that the server holds exactly this
// connection's shadow map over its key range.
func (c *client) sweep() {
	const chunk = 512
	keys := make([][]byte, 0, chunk)
	vals := make([][]byte, chunk)
	found := make([]bool, chunk)
	for lo := uint32(0); lo < c.gen.n && !c.dead; lo += chunk {
		keys = keys[:0]
		hi := min(lo+chunk, c.gen.n)
		for i := lo; i < hi; i++ {
			keys = append(keys, appendKey(nil, c.gen.lo+i, false))
		}
		c.attempted += int64(len(keys))
		_, err := c.cl.MGet(keys, vals[:len(keys)], found[:len(keys)])
		if err != nil {
			c.dropConn(len(keys), err)
			return
		}
		for j := range keys {
			i := lo + uint32(j)
			if found[j] != c.present[i] {
				c.fail(fmt.Errorf("sweep: key %d found=%v, shadow says %v", c.gen.lo+i, found[j], c.present[i]))
				continue
			}
			if found[j] {
				fillValue(&c.exp, c.ver[i])
				if !bytes.Equal(vals[j], c.exp[:]) {
					c.fail(fmt.Errorf("sweep: key %d holds a value the shadow did not write", c.gen.lo+i))
				}
			}
		}
	}
}

// loadResult is a timed phase's outcome over all connections.
type loadResult struct {
	ops       int64 // ops completed in the timed phase
	elapsed   time.Duration
	win       [][]uint32 // per window: latencies (ns), all connections
	window    time.Duration
	cpuClient time.Duration
	attempted int64
	failed    int64
	firstErr  error
	mallocs   uint64  // heap allocations during the phase (whole process)
	steal     float64 // share of the VM's CPU time the hypervisor stole
}

// warm runs n bursts per connection, unrecorded.
func warm(clients []*client, n int) {
	parallel(clients, func(c *client) {
		for i := 0; i < n && !c.dead; i++ {
			c.burst(nil)
		}
	})
}

// timed runs bursts on every connection for dur and gathers the
// observations.
func timed(clients []*client, dur time.Duration) *loadResult {
	start := nanotime()
	recs := make([]*recorder, len(clients))
	for i := range recs {
		recs[i] = newRecorder(start, dur, windows)
	}
	res := &loadResult{window: time.Duration(recs[0].window), win: make([][]uint32, windows)}
	cpu0 := selfCPU()
	mallocs0 := mallocs()
	steal0, total0 := hostTicks()
	deadline := start + int64(dur)
	parallel(clients, func(c *client) {
		rec := recs[c.id]
		for !c.dead && nanotime() < deadline {
			c.burst(rec)
		}
	})
	res.elapsed = time.Duration(nanotime() - start)
	res.cpuClient = selfCPU() - cpu0
	res.mallocs = mallocs() - mallocs0
	res.steal = stealFrac(steal0, total0)
	for _, r := range recs {
		for i, w := range r.win {
			res.win[i] = append(res.win[i], w...)
		}
		res.ops += int64(len(r.late))
	}
	for _, w := range res.win {
		res.ops += int64(len(w))
	}
	return res
}

// tally folds every connection's correctness counts into res.
func tally(res *loadResult, clients []*client) {
	for _, c := range clients {
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// parallel runs fn on every client concurrently and waits.
func parallel(clients []*client, fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// dialAll opens the workload's connections to addr.
func dialAll(addr string, w *workload, seed uint64) ([]*client, error) {
	var zipf []float64
	if w.kind == kindWrite {
		zipf = zipfCDF(w.keys/w.conns, w.zipfS)
	}
	clients := make([]*client, w.conns)
	for i := range clients {
		cl, err := wire.Dial(addr)
		if err != nil {
			closeAll(clients[:i])
			return nil, err
		}
		clients[i] = newClient(i, w, seed, cl, zipf)
	}
	return clients, nil
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.cl.Close()
	}
}
