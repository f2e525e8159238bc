package repro_test

import (
	"math"
	"testing"

	"repro"
)

func TestFacadeBallsBins(t *testing.T) {
	fr := repro.Run(repro.Config{N: 1 << 12, D: 3, Hashing: repro.FullyRandom, Trials: 10, Seed: 1})
	dh := repro.Run(repro.Config{N: 1 << 12, D: 3, Hashing: repro.DoubleHash, Trials: 10, Seed: 2})
	if math.Abs(fr.FractionAtLoad(1)-dh.FractionAtLoad(1)) > 0.01 {
		t.Errorf("facade FR %.4f vs DH %.4f load-1 fractions diverge",
			fr.FractionAtLoad(1), dh.FractionAtLoad(1))
	}
	chi := repro.CompareDistributions(&fr.Pooled, &dh.Pooled)
	if chi.P < 1e-4 {
		t.Errorf("facade chi-square p = %g", chi.P)
	}
	if tv := repro.TotalVariation(&fr.Pooled, &dh.Pooled); tv > 0.02 {
		t.Errorf("facade TV = %g", tv)
	}
}

func TestFacadeFluid(t *testing.T) {
	tails := repro.FluidTails(3, 1, 6)
	if math.Abs(tails[2]-0.17645) > 5e-4 {
		t.Errorf("fluid tail 2 = %v", tails[2])
	}
	fr := repro.FluidLoadFractions(tails)
	if math.Abs(fr[1]-0.6466) > 1e-3 {
		t.Errorf("fluid load-1 fraction = %v", fr[1])
	}
	dl := repro.DLeftFluidTails(4, 1, 4)
	if math.Abs(dl[1]-(1-0.12420)) > 1e-3 {
		t.Errorf("d-left tail 1 = %v", dl[1])
	}
}

func TestFacadeQueues(t *testing.T) {
	r := repro.RunQueues(repro.QueueConfig{
		N: 256, D: 2, Lambda: 0.7,
		Factory: repro.NewDoubleHashChoices,
		Horizon: 500, Burnin: 100, Trials: 2, Seed: 3,
	})
	want := repro.ExpectedSojourn(0.7, 2)
	if got := r.PooledMeanSojourn(); math.Abs(got-want)/want > 0.15 {
		t.Errorf("queue sojourn %v, fluid %v", got, want)
	}
	tails := repro.QueueEquilibriumTails(0.7, 2, 4)
	if tails[1] != 0.7 {
		t.Errorf("equilibrium s_1 = %v, want λ", tails[1])
	}
}

func TestFacadeCoupling(t *testing.T) {
	c := repro.NewCoupling(64, 3, 9)
	for i := 0; i < 256; i++ {
		c.Step()
		if !c.XMajorizesY() {
			t.Fatal("majorization violated through facade")
		}
	}
}

func TestFacadeAncestry(t *testing.T) {
	tr := repro.RecordTrace(512, 2, 512, 11)
	s := tr.SampleSizes(8)
	if s.Sampled == 0 || s.MeanSize < 1 {
		t.Errorf("ancestry stats implausible: %+v", s)
	}
}

func TestFacadeExtensions(t *testing.T) {
	f := repro.NewBloomFilter(1<<14, 6, repro.BloomDoubleHashing, 13)
	fpr := repro.MeasureBloomFPR(f, 1<<10, 20000)
	want := repro.BloomTheoreticalFPR(1<<10, f.Bits(), 6)
	if fpr > 5*want+0.01 {
		t.Errorf("bloom FPR %v far above theory %v", fpr, want)
	}
}

// TestFacadeKeyedHashes checks the keyed pipeline: SipHash digest →
// candidate bins.
func TestFacadeKeyedHashes(t *testing.T) {
	key := repro.SipKeyFromSeed(7)
	der := repro.NewChoiceDeriver(16411)
	dst := make([]uint32, 4)
	der.CandidateBins(repro.SipHash24(key, []byte("flow:10.0.0.1:443")), dst)
	seen := map[uint32]bool{}
	for _, v := range dst {
		if v >= 16411 || seen[v] {
			t.Fatalf("bad candidates %v", dst)
		}
		seen[v] = true
	}
}

func TestFacadeChurn(t *testing.T) {
	c := repro.NewChurnProcess(1<<10, 3, repro.DoubleHash, 43)
	c.Run(1<<10, 2048)
	if c.Balls() != 1<<10 {
		t.Fatalf("balls = %d", c.Balls())
	}
	if c.CurrentMaxLoad() > 6 {
		t.Errorf("churned max load %d", c.CurrentMaxLoad())
	}
}

func TestFacadeTwoBlock(t *testing.T) {
	r := repro.Run(repro.Config{N: 1 << 12, D: 4, Hashing: repro.TwoBlock, Trials: 5, Seed: 45})
	if r.MaxObservedLoad() > 8 {
		t.Errorf("two-block max load %d", r.MaxObservedLoad())
	}
}
