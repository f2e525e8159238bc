package testutil

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// ConcurrentOptions shape RunConcurrent's workload. Each worker owns a
// disjoint key space (worker w uses keys (w+1)<<48 | [1, KeysPerWorker]),
// so its local shadow map is authoritative for every key it touches even
// though all workers hammer the container simultaneously.
type ConcurrentOptions struct {
	Workers       int
	OpsPerWorker  int
	KeysPerWorker uint64
	GetFrac       float64 // fraction of ops that are Gets
	DeleteFrac    float64 // fraction that are Deletes; the rest are Puts
	Seed          uint64
	// Finalize, if set, runs after every worker finishes and before the
	// final sweep — e.g. draining an in-flight cmap migration so the
	// sweep exercises the post-resize geometry.
	Finalize func()
}

// ConcurrentResult is RunConcurrent's verdict. The zero Divergences /
// Lost / Corrupted / LenDelta state (see Err) means the container agreed
// with every worker's shadow map mid-run and held exactly the union of
// the shadows at the end.
type ConcurrentResult struct {
	Divergences     int64  // mid-run disagreements with a worker's shadow
	FirstDivergence string // description of the first one observed
	Rejected        int64  // legal capacity rejections (Put false, key absent)
	Lost            int    // final sweep: shadow keys the container dropped
	Corrupted       int    // final sweep: shadow keys with the wrong value
	LiveKeys        int    // union size of the final shadows
	LenDelta        int    // container Len − LiveKeys (> 0 smells duplication)
}

// Err distills the result: nil if the container matched the oracle
// everywhere, else an error naming the first problem.
func (r ConcurrentResult) Err() error {
	switch {
	case r.FirstDivergence != "":
		return fmt.Errorf("%d mid-run divergences, first: %s", r.Divergences, r.FirstDivergence)
	case r.Lost > 0 || r.Corrupted > 0:
		return fmt.Errorf("final sweep: %d keys lost, %d corrupted", r.Lost, r.Corrupted)
	case r.LenDelta != 0:
		return fmt.Errorf("Len is %+d vs the %d shadow keys (lost or duplicated entries)", r.LenDelta, r.LiveKeys)
	}
	return nil
}

// RunConcurrent is the concurrent counterpart of Run: Workers
// goroutines drive a random Put/Get/Delete mix against the container and
// per-worker shadow maps at once, then a final sweep checks that every
// shadow key survived with its value and that the container holds
// nothing more. It is the single oracle for cmap's race tests,
// complementing Run's sequential op sequences; unlike Run it keeps going
// after a divergence — the race detector wants the full schedule — and
// reports counts instead of failing fast.
func RunConcurrent(c Container[uint64, uint64], opt ConcurrentOptions) ConcurrentResult {
	if opt.Workers <= 0 || opt.OpsPerWorker < 0 || opt.KeysPerWorker == 0 ||
		opt.GetFrac < 0 || opt.DeleteFrac < 0 || opt.GetFrac+opt.DeleteFrac > 1 {
		panic(fmt.Sprintf("testutil: RunConcurrent options %+v", opt))
	}
	var res ConcurrentResult
	var divergences, rejected atomic.Int64
	var firstMu sync.Mutex
	diverge := func(format string, args ...any) {
		divergences.Add(1)
		firstMu.Lock()
		if res.FirstDivergence == "" {
			res.FirstDivergence = fmt.Sprintf(format, args...)
		}
		firstMu.Unlock()
	}

	shadows := make([]map[uint64]uint64, opt.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.NewXoshiro256(rng.Mix64(opt.Seed + uint64(w)*0x9E3779B97F4A7C15))
			shadow := make(map[uint64]uint64)
			for i := 0; i < opt.OpsPerWorker; i++ {
				k := uint64(w+1)<<48 | (1 + src.Uint64()%opt.KeysPerWorker)
				switch p := rng.Float64(src); {
				case p < opt.GetFrac:
					v, ok := c.Get(k)
					if want, wok := shadow[k]; ok != wok || (ok && v != want) {
						diverge("worker %d: Get(%#x) = (%v,%v), shadow (%v,%v)", w, k, v, ok, want, wok)
					}
				case p < opt.GetFrac+opt.DeleteFrac:
					_, wok := shadow[k]
					if c.Delete(k) != wok {
						diverge("worker %d: Delete(%#x) disagreed with shadow %v", w, k, wok)
					}
					delete(shadow, k)
				default:
					v := src.Uint64()
					if c.Put(k, v) {
						shadow[k] = v
					} else if _, wok := shadow[k]; wok {
						diverge("worker %d: Put(%#x) rejected a resident key", w, k)
					} else {
						rejected.Add(1)
					}
				}
			}
			shadows[w] = shadow
		}(w)
	}
	wg.Wait()
	res.Divergences = divergences.Load()
	res.Rejected = rejected.Load()

	if opt.Finalize != nil {
		opt.Finalize()
	}
	for _, shadow := range shadows {
		res.LiveKeys += len(shadow)
		for k, want := range shadow {
			switch v, ok := c.Get(k); {
			case !ok:
				res.Lost++
			case v != want:
				res.Corrupted++
			}
		}
	}
	res.LenDelta = c.Len() - res.LiveKeys
	return res
}
