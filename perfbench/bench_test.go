package main

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro"
	"repro/internal/choice"
	"repro/internal/engine"
	"repro/internal/rng"
)

func TestPercentileMatchesExactSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 1001} {
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = uint32(r.IntN(1000))
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			// Nearest rank: the smallest sample with at least q·n
			// samples at or below it.
			var want uint32
			for _, v := range sorted {
				le := 0
				for _, u := range sorted {
					if u <= v {
						le++
					}
				}
				if float64(le) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(slices.Clone(xs), q); got != want {
				t.Errorf("n=%d q=%v: percentile %d, exact sort gives %d", n, q, got, want)
			}
		}
		fs := make([]float64, n)
		for i, v := range xs {
			fs[i] = float64(v)
		}
		want := float64(sorted[n/2])
		if n%2 == 0 {
			want = (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
		}
		if got := median(fs); got != want {
			t.Errorf("n=%d: median %v, exact sort gives %v", n, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"ops_per_s":                    true,
		"cmap.put_ns":                  true,
		"served.cpu_us_per_op.write-1": true,
		"9lives":                       true,
		"":                             false,
		"_lead":                        false,
		".lead":                        false,
		"has space":                    false,
		"slash/y":                      false,
		"ünïcode":                      false,
		string(make([]byte, 65)):       false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload name %q is not a legal name", w.name)
		}
	}
}

func stream(w *workload, seed uint64, conn, n int) []op {
	var zipf []float64
	if w.kind == kindWrite {
		zipf = zipfCDF(w.keys/w.conns, w.zipfS)
	}
	g := newOpGen(w, seed, conn, zipf)
	ops := make([]op, n)
	for i := range ops {
		g.next(&ops[i])
	}
	return ops
}

func TestOneSeedOneOpStream(t *testing.T) {
	for _, w := range workloads[:2] {
		a, b := stream(w, 7, 1, 2000), stream(w, 7, 1, 2000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", w.name)
		}
		if slices.Equal(a, stream(w, 8, 1, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		if slices.Equal(a, stream(w, 7, 0, 2000)) {
			t.Errorf("%s: connections 0 and 1 share an op stream", w.name)
		}
	}
	var v1, v2 [valueLen]byte
	fillValue(&v1, preloadVersion(7, 42))
	fillValue(&v2, preloadVersion(7, 42))
	if v1 != v2 || preloadVersion(7, 42) == preloadVersion(8, 42) {
		t.Error("preload values must be a function of seed and key")
	}
}

func TestWriteStreamStaysInConnectionRange(t *testing.T) {
	w := workloads[1]
	n := uint32(w.keys / w.conns)
	for conn := 0; conn < w.conns; conn++ {
		for _, o := range stream(w, 3, conn, 5000) {
			if o.idx < uint32(conn)*n || o.idx >= uint32(conn+1)*n {
				t.Fatalf("connection %d drew key %d outside its range", conn, o.idx)
			}
		}
	}
}

// sameChoice is a deliberately broken generator: all d candidates of a
// ball are one uniform bin, so the process degenerates to one choice.
type sameChoice struct {
	engine.Generator
	d int
}

func (g sameChoice) D() int { return g.d }

func (g sameChoice) DrawBatch(dst []uint32, count int) {
	one := make([]uint32, count)
	g.Generator.DrawBatch(one, count)
	for b := 0; b < count; b++ {
		for k := 0; k < g.d; k++ {
			dst[b*g.d+k] = one[b]
		}
	}
}

func TestPaperGate(t *testing.T) {
	const trials = 16
	var fr, dh [2]repro.Hist
	var broken [2]repro.Hist
	for i, d := range []int{3, 4} {
		fr[i] = repro.Run(repro.Config{N: paperN, D: d, Hashing: repro.FullyRandom, Trials: trials, Seed: 1}).Pooled
		dh[i] = repro.Run(repro.Config{N: paperN, D: d, Hashing: repro.DoubleHash, Trials: trials, Seed: 2}).Pooled
		for tr := 0; tr < trials; tr++ {
			gen := sameChoice{choice.NewOneChoice(paperN, 1, rng.NewXoshiro256(uint64(tr))), d}
			p := engine.NewPlacer(gen, engine.TieRandom, rng.NewXoshiro256(^uint64(tr)))
			p.PlaceN(paperN)
			broken[i].Merge(p.LoadHist())
		}
	}
	if err := paperGate([]*repro.Hist{&fr[0], &fr[1]}, []*repro.Hist{&dh[0], &dh[1]}); err != nil {
		t.Errorf("double hashing failed the gate: %v", err)
	}
	if err := paperGate([]*repro.Hist{&fr[0], &fr[1]}, []*repro.Hist{&broken[0], &broken[1]}); err == nil {
		t.Error("the gate passed a generator whose d choices are identical")
	}
}
