package cmap

// The instrumentation-overhead acceptance benchmarks: the identical
// serial Get loop with metrics detached and attached. The "off" case
// must match the pre-instrumentation MapSerialGet trajectory (a nil
// check is the only new work on the path) and "on" must stay within
// 5% of it — the digest-keyed 1-in-64 sample is the mechanism; timing
// every op would cost two clock reads per ~90ns lookup.

import (
	"testing"

	"repro/internal/rng"
)

func benchGetObs(b *testing.B, mx *Metrics) {
	const mask = 1<<16 - 1
	m := newBenchMap(16)
	m.SetMetrics(mx)
	for k := uint64(0); k <= mask; k++ {
		m.Put(k, k)
	}
	src := rng.NewXoshiro256(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(src.Uint64() & mask)
	}
}

func BenchmarkCMapGetObsOff(b *testing.B) { benchGetObs(b, nil) }

func BenchmarkCMapGetObsOn(b *testing.B) { benchGetObs(b, NewMetrics()) }
