// Package repro is a production-quality Go reproduction of Michael
// Mitzenmacher's "Balanced Allocations and Double Hashing" (SPAA 2014,
// arXiv:1209.5360).
//
// The library implements the paper's subject end to end:
//
//   - the balanced-allocation ("power of d choices") process, classic and
//     Vöcking d-left, driven by fully random or double-hashing choice
//     generators (Run);
//   - the fluid-limit differential equations whose solutions the load
//     distributions converge to (FluidTails, FluidLoadFractions,
//     DLeftFluidTails);
//   - the supermarket queueing model, as a discrete-event simulation
//     (RunQueues) and in closed form (ExpectedSojourn);
//   - the majorization coupling of Theorem 2 (NewCoupling) and the
//     ancestry lists of Lemmas 6–7 (RecordTrace);
//   - extensions the paper points at: Bloom filters, open-addressed
//     double hashing, and cuckoo hashing (subpackage re-exports below).
//
// Beyond the simulators, the library ships a generic typed container
// family (see typed.go): Map[K, V] (concurrent, sharded, online resize),
// Table[K, V], CuckooMap[K, V] and OpenMap[K, V], all satisfying the
// common Container[K, V] interface and all driven by a pluggable
// Hasher[K] — one SipHash-2-4 evaluation per operation, from which the
// shard route and all d candidate buckets derive. The paper's one-hash
// discipline is the API contract, not an implementation detail:
//
//	flows := repro.NewMap[string, uint64](repro.WithShards(32))
//	flows.Put("flow:10.0.0.1:443", 1) // one hash: shard + d candidates
//
// This root package is a facade: the implementation lives in internal/
// packages, and the aliases here form the supported public API. The
// placement hot path — candidate generation, least-loaded selection and
// the batched ball loop — is owned by internal/engine and shared by every
// simulator and data structure (core process, multiple-choice hash table,
// cuckoo table, supermarket queues); internal/choice supplies the
// generators, which implement both a per-ball Draw and a batched
// DrawBatch fast path over uint32 bin indices. Every simulation is
// deterministic given a seed and independent of the worker count.
//
// Quick start:
//
//	fr := repro.Run(repro.Config{N: 1 << 14, D: 3, Hashing: repro.FullyRandom, Trials: 100})
//	dh := repro.Run(repro.Config{N: 1 << 14, D: 3, Hashing: repro.DoubleHash, Trials: 100})
//	fmt.Println(fr.FractionAtLoad(2), dh.FractionAtLoad(2)) // essentially equal
package repro

import (
	"repro/internal/ancestry"
	"repro/internal/bloom"
	"repro/internal/choice"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/hashes"
	"repro/internal/openaddr"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Balls-and-bins experiment API (see internal/core for full docs).
type (
	// Config declares a balls-into-bins experiment.
	Config = core.Config
	// Result aggregates the trials of one Config.
	Result = core.Result
	// TrialResult is the outcome of a single trial.
	TrialResult = core.TrialResult
	// Scheme selects classic or d-left placement.
	Scheme = core.Scheme
	// Hashing selects how candidate bins are generated.
	Hashing = core.Hashing
	// TieBreak selects among equally loaded candidates.
	TieBreak = core.TieBreak
	// Coupling is the Theorem 2 majorization coupling.
	Coupling = core.Coupling
)

// Placement schemes.
const (
	Classic = core.Classic
	DLeft   = core.DLeft
)

// Hashing modes.
const (
	FullyRandom         = core.FullyRandom
	DoubleHash          = core.DoubleHash
	FullyRandomWR       = core.FullyRandomWR
	DoubleHashAnyStride = core.DoubleHashAnyStride
	OneChoice           = core.OneChoice
	TwoBlock            = core.TwoBlock
	OnePlusBeta         = core.OnePlusBeta
)

// Tie-break rules.
const (
	TieRandom = core.TieRandom
	TieFirst  = core.TieFirst
)

// Run executes a balls-into-bins experiment: all trials in parallel,
// merged deterministically.
func Run(cfg Config) Result { return core.Run(cfg) }

// NewCoupling returns the Theorem 2 coupled processes over n bins with
// d > 2 double-hashing choices, seeded by seed.
func NewCoupling(n, d int, seed uint64) *Coupling {
	return core.NewCoupling(n, d, rng.NewXoshiro256(seed))
}

// Queueing (supermarket model) API.
type (
	// QueueConfig declares a supermarket-model experiment.
	QueueConfig = queueing.Config
	// QueueResult aggregates queueing trials.
	QueueResult = queueing.Result
)

// RunQueues executes a supermarket-model experiment.
func RunQueues(cfg QueueConfig) QueueResult { return queueing.Run(cfg) }

// Choice generator constructors, usable as QueueConfig.Factory.
var (
	// NewFullyRandomChoices draws d distinct uniform bins per ball.
	NewFullyRandomChoices = choice.NewFullyRandom
	// NewDoubleHashChoices derives d bins from two hash values.
	NewDoubleHashChoices = choice.NewDoubleHash
)

// Fluid-limit API.

// FluidTails returns the limiting fraction of bins with load >= i
// (i = 0..levels) after T·n balls with d choices: the solution of
// dx_i/dt = x_{i−1}^d − x_i^d.
func FluidTails(d int, T float64, levels int) []float64 {
	return fluid.SolveBallsBins(d, T, levels)
}

// FluidLoadFractions converts a tail vector into exact-load fractions.
func FluidLoadFractions(tails []float64) []float64 { return fluid.LoadFractions(tails) }

// DLeftFluidTails returns the d-left scheme's limiting tail fractions.
func DLeftFluidTails(d int, T float64, levels int) []float64 {
	return fluid.SolveDLeft(d, T, levels)
}

// ExpectedSojourn returns the supermarket model's equilibrium mean time in
// system (the paper's Table 8 fluid-limit values; 1/(1−λ) for d = 1).
func ExpectedSojourn(lambda float64, d int) float64 { return fluid.ExpectedSojourn(lambda, d) }

// QueueEquilibriumTails returns the closed-form fixed point
// s_i = λ^((d^i−1)/(d−1)).
func QueueEquilibriumTails(lambda float64, d int, levels int) []float64 {
	return fluid.EquilibriumTails(lambda, d, levels)
}

// Ancestry-list API (the paper's Lemmas 6–7).
type (
	// Trace records every ball's candidate bins for ancestry analysis.
	Trace = ancestry.Trace
	// AncestryStats summarizes ancestry list sizes.
	AncestryStats = ancestry.Stats
)

// RecordTrace throws m double-hashed balls over n bins with d choices and
// records their candidate sets for ancestry analysis.
func RecordTrace(n, d, m int, seed uint64) *Trace {
	return ancestry.Record(choice.NewDoubleHash(n, d, rng.NewXoshiro256(seed)), m)
}

// Statistics API.
type (
	// Hist is a load histogram.
	Hist = stats.Hist
	// Welford accumulates streaming moments.
	Welford = stats.Welford
	// ChiSquareResult reports a homogeneity test.
	ChiSquareResult = stats.ChiSquareResult
)

// CompareDistributions tests whether two pooled load histograms are
// statistically distinguishable (chi-square homogeneity with sparse-tail
// pooling at expected count 5).
func CompareDistributions(a, b *Hist) ChiSquareResult {
	return stats.ChiSquareHomogeneity(a, b, 5)
}

// TotalVariation returns the total-variation distance between two load
// histograms viewed as distributions.
func TotalVariation(a, b *Hist) float64 { return stats.TotalVariation(a, b) }

// Extension APIs (Bloom filters, open-addressing probe kinds).
type (
	// BloomFilter is a Bloom filter with k-independent or double hashing.
	BloomFilter = bloom.Filter
	// BloomMode selects the Bloom filter's hashing discipline.
	BloomMode = bloom.Mode
	// ProbeKind selects the open-addressing probe sequence (see WithProbe).
	ProbeKind = openaddr.Probe
)

// Bloom filter modes.
const (
	BloomKIndependent  = bloom.KIndependent
	BloomDoubleHashing = bloom.DoubleHashing
)

// Open-addressing probe kinds.
const (
	ProbeDoubleHash = openaddr.DoubleHash
	ProbeUniform    = openaddr.Uniform
	ProbeLinear     = openaddr.Linear
)

// NewBloomFilter returns a Bloom filter with at least mBits bits and k
// probes per key.
func NewBloomFilter(mBits uint64, k int, mode BloomMode, seed uint64) *BloomFilter {
	return bloom.New(mBits, k, mode, seed)
}

// BloomTheoreticalFPR returns the classic (1 − e^{−kn/m})^k estimate.
func BloomTheoreticalFPR(n int64, mBits uint64, k int) float64 {
	return bloom.TheoreticalFPR(n, mBits, k)
}

// MeasureBloomFPR inserts n synthetic keys and measures the
// false-positive rate over the given number of probes.
func MeasureBloomFPR(f *BloomFilter, n int64, probes int) float64 {
	return bloom.MeasureFPR(f, n, probes)
}

// NewRandomSource returns the library's default deterministic random
// source (xoshiro256**), for callers that want a reproducible stream of
// workload keys (the examples draw theirs from it).
func NewRandomSource(seed uint64) rng.Source { return rng.NewXoshiro256(seed) }

// Keyed-hashing API for mapping real byte-string items to candidate bins.
type (
	// SipKey is a 128-bit SipHash key.
	SipKey = hashes.SipKey
	// ChoiceDeriver maps 64-bit digests to (f, g) candidate parameters.
	ChoiceDeriver = hashes.Deriver
)

// SipHash24 computes the SipHash-2-4 PRF of data under key.
func SipHash24(key SipKey, data []byte) uint64 { return hashes.SipHash24(key, data) }

// SipKeyFromSeed expands a 64-bit seed into a SipHash key.
func SipKeyFromSeed(seed uint64) SipKey { return hashes.SipKeyFromSeed(seed) }

// NewChoiceDeriver returns a deriver of double-hashing candidates over n
// bins from single 64-bit digests.
func NewChoiceDeriver(n int) *ChoiceDeriver { return hashes.NewDeriver(n) }

// Churn (insertions interleaved with deletions) API.

// ChurnProcess is a balanced-allocation process with deletions.
type ChurnProcess = core.Churn

// NewChurnProcess returns a churn-capable process over n bins with d
// double-hashing choices, seeded deterministically.
func NewChurnProcess(n, d int, hashing Hashing, seed uint64) *ChurnProcess {
	cfg := Config{N: n, D: d, Hashing: hashing}
	gen := cfg.Factory()(n, d, rng.NewXoshiro256(seed))
	p := core.NewProcess(gen, core.TieRandom, rng.NewXoshiro256(rng.Mix64(seed)+1))
	return core.NewChurn(p, rng.NewXoshiro256(rng.Mix64(seed)+2))
}
