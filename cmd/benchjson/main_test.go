package main

import (
	"strings"
	"testing"
)

// transcript is `go test -bench -cpu 1,2,4` output over two packages,
// as `make bench-json` produces it.
const transcript = `goos: linux
goarch: amd64
pkg: repro/internal/cmap
cpu: Test CPU @ 2.00GHz
BenchmarkCMapGetParallel/shards=64/uniform         	 1000000	       110.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCMapGetParallel/shards=64/uniform-2       	 2000000	        60.25 ns/op	       0 B/op	       0 allocs/op
BenchmarkCMapGetParallel/shards=64/uniform-4       	 2000000	        58.00 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/cmap	3.210s
goos: linux
goarch: amd64
pkg: repro/internal/obs
cpu: Test CPU @ 2.00GHz
BenchmarkObsRecord-2                               	100000000	         9.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkObsRecord-4                               	100000000	         9.3 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/obs	2.004s
`

func TestConvertLabelsPackagesAndDropsOversubscribedRows(t *testing.T) {
	doc, dropped, err := convert(strings.NewReader(transcript), 2)
	if err != nil {
		t.Fatal(err)
	}
	if doc.NProc != 2 || doc.GoOS != "linux" || doc.GoArch != "amd64" || doc.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("header = nproc %d, %q/%q, cpu %q", doc.NProc, doc.GoOS, doc.GoArch, doc.CPU)
	}
	if dropped != 2 {
		t.Errorf("dropped %d results, want 2 (the -4 rows of both packages)", dropped)
	}
	want := []Result{
		{Name: "BenchmarkCMapGetParallel/shards=64/uniform", Pkg: "repro/internal/cmap", Procs: 1, Iterations: 1000000, NsPerOp: 110.5},
		{Name: "BenchmarkCMapGetParallel/shards=64/uniform", Pkg: "repro/internal/cmap", Procs: 2, Iterations: 2000000, NsPerOp: 60.25},
		{Name: "BenchmarkObsRecord", Pkg: "repro/internal/obs", Procs: 2, Iterations: 100000000, NsPerOp: 9.1},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("got %d results, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for i, w := range want {
		if got := doc.Benchmarks[i]; got != w {
			t.Errorf("result %d = %+v, want %+v", i, got, w)
		}
	}
}
