// Command benchjson converts `go test -bench` output (Go benchfmt) on
// stdin into a stable JSON document on stdout, so benchmark numbers can
// be checked into the repository (BENCH_get.json) and diffed PR over PR
// without fragile text parsing downstream.
//
// Usage:
//
//	go test -run '^$' -bench 'CMapGet' -benchmem ./internal/cmap | go run ./cmd/benchjson
//
// Each result line
//
//	BenchmarkCMapGetParallel/shards=64/uniform-8   20000000   86.4 ns/op   0 B/op   0 allocs/op
//
// becomes one entry carrying the benchmark name, the package from the
// nearest preceding `pkg:` header, the GOMAXPROCS suffix (the `-cpu`
// value the run used), iterations, and every recognized per-op metric.
// Results whose GOMAXPROCS exceeds the machine's CPU count are dropped:
// goroutines beyond the core count only time-slice, so such a row
// measures the scheduler, not scaling. The remaining environment header
// lines (goos/goarch/cpu) are captured once, alongside the CPU count.
// Unrecognized lines are ignored, so the tool is safe to feed a whole
// `make bench` transcript.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`               // full sub-benchmark path, -cpu suffix stripped
	Pkg         string  `json:"pkg,omitempty"`      // import path of the benchmark's package
	Procs       int     `json:"procs"`              // GOMAXPROCS the run used (the -N suffix; 1 if absent)
	Iterations  int64   `json:"iterations"`         // b.N
	NsPerOp     float64 `json:"ns_per_op"`          // time/op in nanoseconds
	BytesPerOp  float64 `json:"b_per_op"`           // allocated bytes/op (-benchmem)
	AllocsPerOp float64 `json:"allocs_per_op"`      // allocations/op (-benchmem)
	MBPerSec    float64 `json:"mb_per_s,omitempty"` // throughput, when the benchmark reports it
}

// Doc is the whole converted run.
type Doc struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NProc      int      `json:"nproc"` // CPUs of the converting machine; rows above it are dropped
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	doc, dropped, err := convert(os.Stdin, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: dropped %d results run with more procs than the %d CPUs here\n", dropped, doc.NProc)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convert reads a benchfmt transcript and returns its Doc for a machine
// with nproc CPUs, plus the number of results dropped for running with
// more procs than that.
func convert(r io.Reader, nproc int) (Doc, int, error) {
	doc := Doc{NProc: nproc, Benchmarks: []Result{}}
	dropped := 0
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if !ok {
				continue
			}
			if r.Procs > nproc {
				dropped++
				continue
			}
			r.Pkg = pkg
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	return doc, dropped, sc.Err()
}

// parseResult decodes one benchfmt result line: name, iteration count,
// then (value, unit) pairs.
func parseResult(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name, procs := splitProcs(f[0])
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "MB/s":
			r.MBPerSec = v
		}
	}
	return r, true
}

// splitProcs strips the trailing -N GOMAXPROCS suffix the bench runner
// appends (for every -cpu value but 1), returning the bare name and N.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
