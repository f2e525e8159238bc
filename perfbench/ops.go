package main

// Workload inputs. Every key, value and operation derives from the
// --seed argument, so one seed always yields one op stream; served sees
// only the generated requests.

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
)

const valueLen = 32

// appendKey appends the name of preloaded key i; absent keys use a
// prefix no preloaded key has, so a GET of one must return NOT_FOUND.
func appendKey(dst []byte, i uint32, absent bool) []byte {
	const hex = "0123456789abcdef"
	p := byte('k')
	if absent {
		p = 'a'
	}
	dst = append(dst, p)
	for s := 28; s >= 0; s -= 4 {
		dst = append(dst, hex[i>>uint(s)&15])
	}
	return dst
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fillValue writes the 32-byte value that version v names.
func fillValue(dst *[valueLen]byte, v uint64) {
	for i := 0; i < valueLen; i += 8 {
		v = mix(v)
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
}

// preloadVersion names the value key i holds after preload.
func preloadVersion(seed uint64, i uint32) uint64 { return mix(seed ^ mix(uint64(i))) }

// hashSeed derives served's -seed from the benchmark seed (never 0,
// which served reads as "random").
func hashSeed(seed uint64) uint64 { return mix(seed^0x5EED) | 1 }

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
)

// op is one generated request. For opSet, ver names the value written.
type op struct {
	kind   opKind
	absent bool
	idx    uint32
	ver    uint64
}

// opGen yields one connection's op stream.
type opGen struct {
	r    *rand.Rand
	w    *workload
	lo   uint32    // write-burst: first key of this connection's range
	n    uint32    // write-burst: keys in the range (a power of two)
	zipf []float64 // write-burst: cumulative rank weights, shared read-only
}

func newOpGen(w *workload, seed uint64, conn int, zipf []float64) *opGen {
	g := &opGen{r: rand.New(rand.NewPCG(seed, uint64(conn)+1)), w: w, zipf: zipf}
	if w.kind == kindWrite {
		g.n = uint32(w.keys / w.conns)
		g.lo = uint32(conn) * g.n
	}
	return g
}

func (g *opGen) next(o *op) {
	switch g.w.kind {
	case kindRead:
		*o = op{kind: opGet, idx: uint32(g.r.IntN(g.w.keys)), absent: g.r.Float64() < g.w.absentFrac}
	case kindWrite:
		u := g.r.Float64()
		r := uint32(sort.SearchFloat64s(g.zipf, u))
		if r >= g.n {
			r = g.n - 1
		}
		// An odd multiplier permutes the ranks of a power-of-two range,
		// spreading the hot keys over the table.
		idx := g.lo + (r*0x9E3779B1)&(g.n-1)
		if g.r.Float64() < g.w.delFrac {
			*o = op{kind: opDel, idx: idx}
		} else {
			*o = op{kind: opSet, idx: idx, ver: g.r.Uint64()}
		}
	}
}

// zipfCDF returns the normalized cumulative weights 1/(r+1)^s of n
// ranks, for inverse-transform sampling.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}
