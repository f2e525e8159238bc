// Benchmarks: one per paper table (each prints the regenerated rows once,
// at a reduced scale — see cmd/paperrepro for configurable-scale runs and
// EXPERIMENTS.md for recorded paper-vs-measured numbers), plus
// micro-benchmarks of the hot paths and the ablation benches called out in
// DESIGN.md §6.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/choice"
	"repro/internal/core"
	"repro/internal/cuckoo"
	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/hashes"
	"repro/internal/mchtable"
	"repro/internal/openaddr"
	"repro/internal/queueing"
	"repro/internal/rng"
)

// printOnce ensures each table's rows are printed a single time per
// process however many benchmark iterations run.
var printOnce sync.Map

func printTables(name string, tables []experiments.Rendered) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Println()
	for _, t := range tables {
		fmt.Println(t.Text)
	}
}

// benchTable runs a table generator at the given scale divisor and prints
// its rows once.
func benchTable(b *testing.B, name string, scale int, render func(experiments.Options) []experiments.Rendered) {
	b.Helper()
	opt := experiments.Options{Scale: scale, Seed: 0xBE}
	var tables []experiments.Rendered
	for i := 0; i < b.N; i++ {
		tables = render(opt)
	}
	b.StopTimer()
	printTables(name, tables)
}

// Paper tables. Scale divisors keep a single iteration in the seconds
// range; the printed rows use the same code paths as full-scale runs.

func BenchmarkTable1(b *testing.B) { benchTable(b, "t1", 1000, experiments.Table1) }
func BenchmarkTable2(b *testing.B) { benchTable(b, "t2", 1000, experiments.Table2) }
func BenchmarkTable3(b *testing.B) { benchTable(b, "t3", 2000, experiments.Table3) }
func BenchmarkTable4(b *testing.B) { benchTable(b, "t4", 2500, experiments.Table4) }
func BenchmarkTable5(b *testing.B) { benchTable(b, "t5", 2000, experiments.Table5) }
func BenchmarkTable6(b *testing.B) { benchTable(b, "t6", 2000, experiments.Table6) }
func BenchmarkTable7(b *testing.B) { benchTable(b, "t7", 2000, experiments.Table7) }
func BenchmarkTable8(b *testing.B) { benchTable(b, "t8", 200, experiments.Table8) }

// BenchmarkGeneratorCost measures ns per candidate-set draw through the
// per-ball Draw contract — the practical motivation of the paper: double
// hashing needs two PRNG draws per ball where fully random needs d.
func BenchmarkGeneratorCost(b *testing.B) {
	const n, d = 1 << 16, 4
	for name, factory := range map[string]choice.Factory{
		"fully-random-d4": choice.NewFullyRandom,
		"double-hash-d4":  choice.NewDoubleHash,
		"dleft-random-d4": choice.NewDLeftFullyRandom,
		"dleft-double-d4": choice.NewDLeftDoubleHash,
		"fully-random-wr": choice.NewFullyRandomWithReplacement,
	} {
		b.Run(name, func(b *testing.B) {
			gen := factory(n, d, rng.NewXoshiro256(1))
			dst := make([]uint32, d)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen.Draw(dst)
			}
		})
	}
}

// BenchmarkGeneratorBatchCost measures ns per candidate set through the
// batched DrawBatch fast path (512 balls per call), which amortizes the
// generator dispatch and bulk PRNG refill — the engine's hot path.
func BenchmarkGeneratorBatchCost(b *testing.B) {
	const n, d, balls = 1 << 16, 4, 512
	for name, factory := range map[string]choice.Factory{
		"fully-random-d4": choice.NewFullyRandom,
		"double-hash-d4":  choice.NewDoubleHash,
		"dleft-double-d4": choice.NewDLeftDoubleHash,
	} {
		b.Run(name, func(b *testing.B) {
			gen := factory(n, d, rng.NewXoshiro256(1))
			dst := make([]uint32, balls*d)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += balls {
				c := balls
				if b.N-done < c {
					c = b.N - done
				}
				gen.DrawBatch(dst[:c*d], c)
			}
		})
	}
}

// BenchmarkPlace measures ns per ball through the batched placement loop
// (engine.Placer.PlaceN) — the unified hot path every experiment runs on.
func BenchmarkPlace(b *testing.B) {
	const n = 1 << 16
	cases := []struct {
		name    string
		factory choice.Factory
		d       int
		tie     core.TieBreak
	}{
		{"classic-fully-random", choice.NewFullyRandom, 3, core.TieRandom},
		{"classic-double-hash", choice.NewDoubleHash, 3, core.TieRandom},
		{"dleft-double-hash", choice.NewDLeftDoubleHash, 4, core.TieFirst},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			gen := c.factory(n, c.d, rng.NewXoshiro256(2))
			p := core.NewProcess(gen, c.tie, rng.NewXoshiro256(3))
			b.ReportAllocs()
			b.ResetTimer()
			p.PlaceN(b.N)
		})
	}
}

// BenchmarkPlaceSingle measures ns per ball through the incremental Place
// contract (one dynamic dispatch per ball), quantifying what batching
// saves.
func BenchmarkPlaceSingle(b *testing.B) {
	const n = 1 << 16
	gen := choice.NewDoubleHash(n, 3, rng.NewXoshiro256(2))
	p := core.NewProcess(gen, core.TieRandom, rng.NewXoshiro256(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Place()
	}
}

// BenchmarkAblationReplacement compares drawing with vs without
// replacement (DESIGN.md §6; paper footnote 7).
func BenchmarkAblationReplacement(b *testing.B) {
	const n, d = 1 << 14, 4
	for name, factory := range map[string]choice.Factory{
		"without-replacement": choice.NewFullyRandom,
		"with-replacement":    choice.NewFullyRandomWithReplacement,
	} {
		b.Run(name, func(b *testing.B) {
			gen := factory(n, d, rng.NewXoshiro256(4))
			dst := make([]uint32, d)
			for i := 0; i < b.N; i++ {
				gen.Draw(dst)
			}
		})
	}
}

// BenchmarkAblationTieBreak compares random vs first-minimum tie breaking
// in the placement loop.
func BenchmarkAblationTieBreak(b *testing.B) {
	const n, d = 1 << 14, 3
	for name, tie := range map[string]core.TieBreak{
		"tie-random": core.TieRandom,
		"tie-first":  core.TieFirst,
	} {
		b.Run(name, func(b *testing.B) {
			gen := choice.NewDoubleHash(n, d, rng.NewXoshiro256(5))
			p := core.NewProcess(gen, tie, rng.NewXoshiro256(6))
			for i := 0; i < b.N; i++ {
				p.Place()
			}
		})
	}
}

// BenchmarkAblationStride compares the coprime stride (rejection sampling
// on composite n) against the unrestricted stride.
func BenchmarkAblationStride(b *testing.B) {
	const n, d = 3 * (1 << 14), 4 // composite n exercises rejection
	for name, factory := range map[string]choice.Factory{
		"coprime-stride": choice.NewDoubleHash,
		"any-stride":     choice.NewDoubleHashAnyStride,
	} {
		b.Run(name, func(b *testing.B) {
			gen := factory(n, d, rng.NewXoshiro256(7))
			dst := make([]uint32, d)
			for i := 0; i < b.N; i++ {
				gen.Draw(dst)
			}
		})
	}
}

// BenchmarkAblationPRNG swaps the generator family under the placement
// loop, showing results are not an artifact of the PRNG (drand48 is the
// paper's original source).
func BenchmarkAblationPRNG(b *testing.B) {
	const n, d = 1 << 14, 3
	sources := map[string]func() rng.Source{
		"drand48":    func() rng.Source { return rng.NewDrand48(8) },
		"splitmix64": func() rng.Source { return rng.NewSplitMix64(8) },
		"xoshiro256": func() rng.Source { return rng.NewXoshiro256(8) },
		"pcg64":      func() rng.Source { return rng.NewPCG64(8) },
	}
	for name, mk := range sources {
		b.Run(name, func(b *testing.B) {
			gen := choice.NewDoubleHash(n, d, mk())
			p := core.NewProcess(gen, core.TieRandom, rng.NewXoshiro256(9))
			for i := 0; i < b.N; i++ {
				p.Place()
			}
		})
	}
}

// BenchmarkCouplingStep measures the Theorem 2 coupling's cost per step.
func BenchmarkCouplingStep(b *testing.B) {
	c := core.NewCoupling(1<<12, 3, rng.NewXoshiro256(10))
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkQueueTrial measures one short supermarket simulation per
// iteration and reports throughput in completed jobs.
func BenchmarkQueueTrial(b *testing.B) {
	for name, factory := range map[string]choice.Factory{
		"fully-random": choice.NewFullyRandom,
		"double-hash":  choice.NewDoubleHash,
	} {
		b.Run(name, func(b *testing.B) {
			cfg := queueing.Config{
				N: 1 << 10, D: 3, Lambda: 0.9,
				Factory: factory,
				Horizon: 50, Burnin: 5, Seed: 11,
			}
			var jobs int64
			for i := 0; i < b.N; i++ {
				jobs += cfg.RunTrial(i).Completed
			}
			b.ReportMetric(float64(jobs)/float64(b.N), "jobs/trial")
		})
	}
}

// BenchmarkFluidSolve measures the ODE solves used by Table 2 and the
// d-left fluid system.
func BenchmarkFluidSolve(b *testing.B) {
	b.Run("ballsbins-d3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fluid.SolveBallsBins(3, 1, 8)
		}
	})
	b.Run("dleft-d4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fluid.SolveDLeft(4, 1, 8)
		}
	})
	b.Run("supermarket", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fluid.SolveSupermarket(0.9, 3, 50, 12)
		}
	})
}

// BenchmarkBloom measures probe cost for both hashing disciplines.
func BenchmarkBloom(b *testing.B) {
	for name, mode := range map[string]bloom.Mode{
		"k-independent":  bloom.KIndependent,
		"double-hashing": bloom.DoubleHashing,
	} {
		b.Run("add-"+name, func(b *testing.B) {
			f := bloom.New(1<<20, 7, mode, 12)
			for i := 0; i < b.N; i++ {
				f.Add(uint64(i))
			}
		})
		b.Run("contains-"+name, func(b *testing.B) {
			f := bloom.New(1<<20, 7, mode, 12)
			for i := 0; i < 1<<14; i++ {
				f.Add(uint64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Contains(uint64(i))
			}
		})
	}
}

// BenchmarkOpenAddrSearch measures unsuccessful-search cost at a fixed
// load for each probe discipline (the 1/(1−α) comparison).
func BenchmarkOpenAddrSearch(b *testing.B) {
	for name, probe := range map[string]openaddr.Probe{
		"double-hash": openaddr.DoubleHash,
		"uniform":     openaddr.Uniform,
		"linear":      openaddr.Linear,
	} {
		b.Run(name, func(b *testing.B) {
			t := openaddr.New(1<<14, probe, 13)
			t.FillTo(0.7, rng.NewXoshiro256(14))
			src := rng.NewXoshiro256(15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Lookup(src.Uint64())
			}
		})
	}
}

// BenchmarkCuckooFill measures bulk-load cost at α = 0.8 per iteration.
func BenchmarkCuckooFill(b *testing.B) {
	for name, mode := range map[string]cuckoo.Mode{
		"independent":   cuckoo.Independent,
		"double-hashed": cuckoo.DoubleHashed,
	} {
		b.Run(name, func(b *testing.B) {
			const capacity = 1 << 12
			for i := 0; i < b.N; i++ {
				t := cuckoo.New(capacity, 3, mode, uint64(i), rng.NewXoshiro256(uint64(i)+1))
				r := t.Fill(capacity*4/5, rng.NewXoshiro256(uint64(i)+2))
				if r.Failed != 0 {
					b.Fatalf("fill failed: %+v", r)
				}
			}
		})
	}
}

// BenchmarkSipHash24 measures keyed-hash throughput at packet-like sizes.
func BenchmarkSipHash24(b *testing.B) {
	key := hashes.SipKeyFromSeed(1)
	for _, size := range []int{8, 16, 64, 256} {
		b.Run(fmt.Sprintf("len=%d", size), func(b *testing.B) {
			data := make([]byte, size)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				hashes.SipHash24(key, data)
			}
		})
	}
}

// BenchmarkMCHModes measures the multiple-choice hash table under both
// hashing pipelines — the d-hashes-vs-one ablation on a real structure.
func BenchmarkMCHModes(b *testing.B) {
	for name, mode := range map[string]mchtable.HashMode{
		"independent-hashes": mchtable.IndependentHashes,
		"double-hashing":     mchtable.DoubleHashing,
	} {
		b.Run("put-"+name, func(b *testing.B) {
			t := mchtable.New(mchtable.Config{
				Buckets: 1 << 16, SlotsPerBucket: 4, D: 3, Mode: mode, Seed: 1,
			})
			src := rng.NewXoshiro256(2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if t.Occupancy() > 0.7 {
					b.StopTimer()
					t = mchtable.New(mchtable.Config{
						Buckets: 1 << 16, SlotsPerBucket: 4, D: 3, Mode: mode, Seed: uint64(i),
					})
					b.StartTimer()
				}
				t.Put(src.Uint64(), 0)
			}
		})
		b.Run("get-"+name, func(b *testing.B) {
			t := mchtable.New(mchtable.Config{
				Buckets: 1 << 14, SlotsPerBucket: 4, D: 3, Mode: mode, Seed: 3,
			})
			for k := uint64(0); k < 1<<15; k++ {
				t.Put(k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Get(uint64(i) & (1<<15 - 1))
			}
		})
	}
}

// BenchmarkChurnStep measures one delete+insert churn step at m = n.
func BenchmarkChurnStep(b *testing.B) {
	const n = 1 << 14
	cfg := core.Config{N: n, D: 3, Hashing: core.DoubleHash}
	gen := cfg.Factory()(n, 3, rng.NewXoshiro256(4))
	p := core.NewProcess(gen, core.TieRandom, rng.NewXoshiro256(5))
	c := core.NewChurn(p, rng.NewXoshiro256(6))
	for i := 0; i < n; i++ {
		c.Insert()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkAblationDerandomization compares the paper's double hashing
// against the Kenthapadi–Panigrahy two-block derandomization.
func BenchmarkAblationDerandomization(b *testing.B) {
	const n, d = 1 << 14, 4
	for name, factory := range map[string]choice.Factory{
		"double-hash": choice.NewDoubleHash,
		"two-block":   choice.NewTwoBlock,
	} {
		b.Run(name, func(b *testing.B) {
			gen := factory(n, d, rng.NewXoshiro256(7))
			p := core.NewProcess(gen, core.TieRandom, rng.NewXoshiro256(8))
			for i := 0; i < b.N; i++ {
				p.Place()
			}
		})
	}
}

// BenchmarkMaxLoadGrowth places n balls at doubling n and reports the
// observed maximum load — the log log n curve of Theorem 4 — as a metric.
func BenchmarkMaxLoadGrowth(b *testing.B) {
	for _, logN := range []int{12, 16, 20} {
		b.Run(fmt.Sprintf("n=2^%d", logN), func(b *testing.B) {
			maxLoad := 0
			for i := 0; i < b.N; i++ {
				r := core.Config{N: 1 << logN, D: 3, Hashing: core.DoubleHash, Seed: uint64(i)}.RunTrial(0)
				maxLoad = r.MaxLoad
			}
			b.ReportMetric(float64(maxLoad), "max-load")
		})
	}
}
