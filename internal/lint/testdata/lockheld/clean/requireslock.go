// Package clean holds requires-lock calls made with their class held on
// every path. Any lockorder finding here is a false positive.
package clean

import "sync"

// A table whose *Locked helpers are reached only with the exclusive
// lock held on every path: an acquire before the call, obligation
// propagation between requires-lock functions, a deferred unlock, and
// the resize drainer's loop shape.
type table struct {
	mu       sync.RWMutex //repro:lockclass table 80
	items    map[uint64]uint64
	resizing bool
}

//repro:requires-lock table
func (s *table) growLocked() {
	s.items[0] = uint64(len(s.items))
}

// rebalanceLocked propagates the obligation outward: it is itself
// requires-lock, so calling growLocked is fine.
//
//repro:requires-lock table
func (s *table) rebalanceLocked() {
	s.growLocked()
}

// put acquires the lock before the call and releases it after.
func (s *table) put(k, v uint64) {
	s.mu.Lock()
	s.items[k] = v
	s.rebalanceLocked()
	s.mu.Unlock()
}

// putDeferred holds the lock to function exit through a deferred unlock.
func (s *table) putDeferred(k, v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[k] = v
	s.rebalanceLocked()
}

// migrateStep is MigrateStep's shape: idle tables are skipped before the
// lock is taken, and each call runs under a lock released before the
// next iteration.
func migrateStep(tables []*table) {
	for _, s := range tables {
		if !s.resizing {
			continue
		}
		s.mu.Lock()
		s.growLocked()
		s.mu.Unlock()
	}
}

// lockedClosure's function literal takes the lock itself.
func (s *table) lockedClosure() func() {
	return func() {
		s.mu.Lock()
		s.growLocked()
		s.mu.Unlock()
	}
}
