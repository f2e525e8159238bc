// Command perfbench is the repository's benchmark: one closed-loop
// workload per run, checked for correct results, printing every metric
// by name with its unit. The last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}; the
// line before it records the machine and the run's configuration.
//
// End-to-end runs (--trace 0) drive a served child process built from
// this checkout, or repro.Run for paper-sim. The traced run (--trace 1)
// rebuilds the serving stack in-process, wraps spans around the calls
// into each layer, and reports per-layer metrics for every layer.
//
// Run it through perfbench/run.sh, which builds served and this
// program first:
//
//	bash perfbench/run.sh --workload read-burst --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
)

type workloadKind int

const (
	kindRead workloadKind = iota
	kindWrite
	kindPaper
)

// workload is one named traffic mix. The reasons for each choice are
// recorded in BENCHMARK.json.
type workload struct {
	name       string
	kind       workloadKind
	conns      int     // connections (served workloads)
	burst      int     // requests per pipelined burst
	keys       int     // preloaded keys
	absentFrac float64 // read-burst: share of GETs for absent keys
	delFrac    float64 // write-burst: share of DELs (the rest are SETs)
	zipfS      float64 // write-burst: key-rank skew
	warmBursts int     // unrecorded bursts per connection before timing
}

var workloads = []*workload{
	{name: "read-burst", kind: kindRead, conns: 2, burst: 32, keys: 1 << 21, absentFrac: 0.10, warmBursts: 2000},
	{name: "write-burst", kind: kindWrite, conns: 2, burst: 32, keys: 1 << 16, delFrac: 0.10, zipfS: 0.99, warmBursts: 60},
	{name: "paper-sim", kind: kindPaper},
}

// setupStarts is how many times a served workload starts served on its
// preloaded directory; setup_s reports the median start.
const setupStarts = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: read-burst, write-burst or paper-sim")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
		served  = flag.String("served", ".bench_build/served", "served binary built from this checkout")
		out     = flag.String("out", ".bench_build", "directory for work files and span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *served, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, served, out string) error {
	var w *workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	if w.conns > nproc {
		return fmt.Errorf("%s needs %d connections but nproc is %d: refusing to oversubscribe", w.name, w.conns, nproc)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	dur := time.Duration(seconds) * time.Second
	info := machineInfo(nproc)
	var res *result
	if trace == 1 {
		res, err = traceRun(w, seed, dur, served, work, out, info)
	} else if w.kind == kindPaper {
		res, err = paperE2E(seed, dur, nproc, info)
	} else {
		res, err = servedE2E(w, seed, dur, served, work, info)
	}
	if err != nil {
		return err
	}
	info["workload"] = w.name
	info["seed"] = seed
	line, err := json.Marshal(map[string]any{"machine": info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// machineInfo records what a result was measured on.
func machineInfo(nproc int) map[string]any {
	return map[string]any{
		"nproc":             nproc,
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":         cpuModel(),
		"go_version":        runtime.Version(),
		"commit":            commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the source under test: the git HEAD when the
// checkout is a repository, else a digest of its Go sources and module
// files.
func commit() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
		}
		return head
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are not part of the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, _ := os.ReadFile(f) // a vanished file digests as empty
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// servedOutcome is one run of a served workload against the child.
type servedOutcome struct {
	setup     time.Duration // median start plus warm-up
	starts    []float64     // each start's seconds until served accepted
	load      *loadResult
	cpuServed time.Duration
	rssMB     float64 // median over starts of VmHWM once served accepted
	endRSSMB  float64 // VmHWM at the end of the timed phase
}

// runServed preloads a directory, starts served on it starts times,
// warms it up, and measures dur of closed-loop traffic, checking every
// reply (and, for write-burst, sweeping the final state).
func runServed(w *workload, seed uint64, dur time.Duration, bin, dir string, starts int) (*servedOutcome, error) {
	if err := preload(dir, w, seed); err != nil {
		return nil, err
	}
	var (
		p          *servedProc
		times, rss []float64
	)
	for i := 0; i < starts; i++ {
		if p != nil {
			p.stop()
		}
		var d time.Duration
		var err error
		p, d, err = startServed(bin, dir, seed)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		mb, err := peakRSSMB(fmt.Sprint(p.cmd.Process.Pid))
		if err != nil {
			p.stop()
			return nil, err
		}
		rss = append(rss, mb)
	}
	defer p.stop()
	clients, err := dialAll(p.addr, w, seed)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)
	t0 := time.Now()
	warm(clients, w.warmBursts)
	warmup := time.Since(t0)

	pid := p.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	res := timed(clients, dur)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	endRSS, err := peakRSSMB(fmt.Sprint(pid))
	if err != nil {
		return nil, err
	}
	if w.kind == kindWrite {
		parallel(clients, (*client).sweep)
	}
	tally(res, clients)
	return &servedOutcome{
		setup:     time.Duration(median(times)*float64(time.Second)) + warmup,
		starts:    times,
		load:      res,
		cpuServed: cpu1 - cpu0,
		rssMB:     median(rss),
		endRSSMB:  endRSS,
	}, nil
}

func servedE2E(w *workload, seed uint64, dur time.Duration, bin, work string, info map[string]any) (*result, error) {
	o, err := runServed(w, seed, dur, bin, filepath.Join(work, "data"), setupStarts)
	if err != nil {
		return nil, err
	}
	r := o.load
	sum := windowSummary(r.win, r.window, 1)
	info["served_gomaxprocs"] = info["nproc"] // served runs with GOMAXPROCS unset
	info["connections"] = w.conns
	info["burst"] = w.burst
	info["latency_samples"] = r.ops
	info["run_mean_ops_per_s"] = frac(float64(r.ops), r.elapsed.Seconds())
	info["setup_starts_s"] = o.starts
	info["end_of_run_vmhwm_mib"] = o.endRSSMB
	info["host_steal_frac"] = r.steal
	if r.firstErr != nil {
		info["first_failure"] = r.firstErr.Error()
	}
	m := endToEnd(info, o.setup.Seconds(), sum, o.rssMB)
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// endToEnd builds the end-to-end metrics. The p99, which spreads more
// between runs on a shared machine than the bound allows, and each
// window's rate go to the machine line.
func endToEnd(info map[string]any, setupS float64, sum summary, rssMB float64) metrics {
	info["op_p99_us"] = sum.p99us
	info["window_ops_per_s"] = sum.rates
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("ops_per_s", "1/s", sum.rate)
	m.set("op_p50_us", "us", sum.p50us)
	m.set("op_p90_us", "us", sum.p90us)
	m.set("rss_mb", "MiB", rssMB)
	return m
}

// paperCells are the paper's Table 1 configurations: n = m = 2^14,
// d in {3, 4}, fully random against double hashing.
var paperCells = []struct {
	d int
	h repro.Hashing
}{{3, repro.FullyRandom}, {3, repro.DoubleHash}, {4, repro.FullyRandom}, {4, repro.DoubleHash}}

const (
	paperN = 1 << 14
	// gateCalls is how many repro.Run calls per cell feed the chi-square
	// gate. It is fixed so the gate's power does not depend on the run
	// length.
	gateCalls = 64
	// gateP is the p-value below which double hashing counts as
	// distinguishable from fully random: the threshold of the
	// repository's own facade test.
	gateP = 1e-4
)

// paperGate checks that double hashing is not distinguishable from
// fully random hashing for each d.
func paperGate(fr, dh []*repro.Hist) error {
	for i := range fr {
		if chi := repro.CompareDistributions(fr[i], dh[i]); chi.P < gateP {
			return fmt.Errorf("d=%d: chi-square rejects double hashing against fully random (chi2 %.1f, dof %d, p %.3g)",
				paperCells[2*i].d, chi.Chi2, chi.Dof, chi.P)
		}
	}
	return nil
}

// paperCall is one repro.Run of one Table 1 cell.
func paperCall(seed uint64, i, workers int) repro.Result {
	c := paperCells[i%len(paperCells)]
	return repro.Run(repro.Config{N: paperN, D: c.d, Hashing: c.h, Trials: workers,
		Seed: mix(seed ^ mix(uint64(i))), Workers: workers})
}

func paperE2E(seed uint64, dur time.Duration, nproc int, info map[string]any) (*result, error) {
	workers := nproc
	balls := int64(workers) * paperN // per call
	info["workers"] = workers
	info["balls_per_call"] = balls

	// Set-up: one cold pass over the Table 1 cells at setupTrials
	// trials each (allocation, page faults, caches), repeated;
	// setup_s is the median pass.
	const setupTrials = 32
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k, c := range paperCells {
			repro.Run(repro.Config{N: paperN, D: c.d, Hashing: c.h, Trials: setupTrials,
				Seed: mix(seed ^ uint64(r*len(paperCells)+k) ^ 0x5E7), Workers: workers})
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}

	pooled := make([]repro.Hist, len(paperCells))
	gate := func(i int, res *repro.Result) {
		if i/len(paperCells) < gateCalls {
			pooled[i%len(paperCells)].Merge(&res.Pooled)
		}
	}
	steal0, total0 := hostTicks()
	rec := newRecorder(nanotime(), dur, windows)
	deadline := rec.start + int64(dur)
	i := 0
	for ; nanotime() < deadline; i++ {
		t0 := nanotime()
		res := paperCall(seed, i, workers)
		t1 := nanotime()
		rec.add(t1-t0, t1)
		gate(i, &res)
	}
	elapsed := time.Duration(nanotime() - rec.start)
	info["host_steal_frac"] = stealFrac(steal0, total0)
	timedCalls := i
	attempted := int64(i) * balls
	for ; i < gateCalls*len(paperCells); i++ { // short runs finish the gate's sample untimed
		res := paperCall(seed, i, workers)
		gate(i, &res)
		attempted += balls
	}
	var failed int64
	if err := paperGate([]*repro.Hist{&pooled[0], &pooled[2]}, []*repro.Hist{&pooled[1], &pooled[3]}); err != nil {
		info["first_failure"] = err.Error()
		failed = attempted
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	sum := windowSummary(rec.win, time.Duration(rec.window), float64(balls))
	info["latency_samples"] = timedCalls
	info["run_mean_ops_per_s"] = float64(int64(timedCalls)*balls) / elapsed.Seconds()
	info["setup_rounds_s"] = rounds
	m := endToEnd(info, median(rounds), sum, rss)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
