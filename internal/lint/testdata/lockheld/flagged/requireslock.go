// Package a exercises lockorder's must-hold check: requires-lock calls
// made without their class held on every path.
package a

import "sync"

// A table whose *Locked helper mutates state only the exclusive lock
// serializes: every caller below reaches it without that lock held on
// every path.
type table struct {
	mu    sync.RWMutex //repro:lockclass table 80
	items map[uint64]uint64
}

// growLocked mutates table state that only mu serializes.
//
//repro:requires-lock table
func (s *table) growLocked() {
	s.items[0] = uint64(len(s.items))
}

// putNoLock reaches growLocked without ever acquiring the lock.
func (s *table) putNoLock(k, v uint64) {
	s.items[k] = v
	s.growLocked() // want `call of //repro:requires-lock growLocked from putNoLock`
}

// lateLock acquires the lock only after the call that needed it.
func (s *table) lateLock(k uint64) {
	s.growLocked() // want `call of //repro:requires-lock growLocked from lateLock`
	s.mu.Lock()
	s.items[k] = 0
	s.mu.Unlock()
}

// unlockThenCall releases the lock before the call: an acquire precedes
// the call in the source, but the lock is no longer held there.
func (s *table) unlockThenCall(k uint64) {
	s.mu.Lock()
	s.items[k] = 0
	s.mu.Unlock()
	s.growLocked() // want `call of //repro:requires-lock growLocked from unlockThenCall`
}

// oneBranch holds the lock on only one of the paths reaching the call.
func (s *table) oneBranch(k uint64, locked bool) {
	if locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.items[k] = 0
	s.growLocked() // want `call of //repro:requires-lock growLocked from oneBranch`
}

// readLocked holds only the read side, which lets other readers in and
// so does not serialize a mutation.
func (s *table) readLocked() {
	s.mu.RLock()
	s.growLocked() // want `call of //repro:requires-lock growLocked from readLocked`
	s.mu.RUnlock()
}

// asyncGrow holds the lock, but the function literal runs on another
// goroutine, which starts with nothing held.
func (s *table) asyncGrow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.growLocked() // want `call of //repro:requires-lock growLocked from a function literal in asyncGrow`
	}()
}
