// Package clean holds the legal locking shapes: rank-increasing
// nesting, strictly sequential acquisition of unordered classes (the
// group-commit hand-off), stripe locks reached through an annotated
// accessor, and re-acquisition around a loop. Any lockorder finding
// here is a false positive.
package clean

import "sync"

type walLog struct {
	mu  sync.Mutex //repro:lockclass walappend 40
	smu sync.Mutex //repro:lockclass walcommit 50
}

// nested acquires in declared order: 40 then 50.
func (w *walLog) nested() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.smu.Lock()
	w.smu.Unlock()
}

// handoff is the group-commit shape: the commit lock is taken, dropped,
// and only then the append lock — sequential, never nested, so no edge
// exists in either direction.
func (w *walLog) handoff() {
	w.smu.Lock()
	w.smu.Unlock()
	w.mu.Lock()
	w.mu.Unlock()
}

// Striped map: the directory lock is ordered before any stripe, and
// stripes are reached through the annotated accessor — the local
// carries the class to its Lock call.
type smap struct {
	mu      sync.RWMutex //repro:lockclass dir 10
	stripes [16]sync.Mutex
}

// stripeOf returns the ordering lock for a key.
//
//repro:lockclass stripe 20
func (s *smap) stripeOf(k uint64) *sync.Mutex {
	return &s.stripes[k%16]
}

func (s *smap) put(k uint64) {
	s.mu.RLock()
	st := s.stripeOf(k)
	st.Lock()
	st.Unlock()
	s.mu.RUnlock()
}

type shard struct {
	mu sync.RWMutex //repro:lockclass shard 30
	n  int
}

// retryLoop re-acquires the same class around a loop: the unlock on the
// back edge keeps the held set empty at the next acquire.
func (sh *shard) retryLoop(n int) {
	for i := 0; i < n; i++ {
		sh.mu.Lock()
		sh.n++
		sh.mu.Unlock()
	}
}
