package lint

// lockheld: the *Locked-suffixed helpers (startResizeLocked,
// migrateLocked, ...) mutate shard state that only the shard's writer
// lock serializes, and they say so with //repro:requires-lock. This
// analyzer makes the convention load-bearing: every call of a
// requires-lock function must come from a caller that visibly holds the
// lock, meaning one of
//
//   - the caller is itself //repro:requires-lock (the obligation
//     propagates outward to a caller that does acquire);
//   - the caller is annotated //repro:locked <reason> — it asserts the
//     lock is held on entry by some non-lexical means (a callback
//     invoked under the lock, a single-goroutine constructor);
//   - the call is lexically preceded, in the caller's body, by a call
//     of a method named Lock or RLock (the acquire dominates the
//     call in the straight-line shapes the library uses).
//
// The check is intra-package and lexical, not a dataflow analysis: it
// will not notice an unlock between the acquire and the call. It is a
// tripwire for the real bug class — reaching a *Locked helper from a
// path that never took the lock at all.

import (
	"go/ast"
	"go/token"
)

// LockHeld is the lockheld analyzer.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "//repro:requires-lock functions called only with the shard lock visibly held",
	Run:  runLockHeld,
}

func runLockHeld(p *Pass) error {
	dirs := p.Directives()
	decls := funcDecls(p)
	for _, fd := range sortedDecls(decls) {
		if fd.Body == nil {
			continue
		}
		callerHolds := dirs.FuncHas(fd, DirRequiresLck) || dirs.FuncHas(fd, DirLocked)
		if ldir, ok := dirs.Func(fd, DirLocked); ok && ldir.Args == "" {
			p.Reportf(ldir.Pos, "//repro:locked needs a reason: say why the lock is already held when %s runs", fd.Name.Name)
		}
		if callerHolds {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(p.TypesInfo, call)
			if callee == nil || callee.Pkg() != p.Pkg {
				return true
			}
			cd, ok := decls[callee.Origin()]
			if !ok || !dirs.FuncHas(cd, DirRequiresLck) {
				return true
			}
			if !acquireBefore(fd, call.Pos(), p) {
				p.Reportf(call.Pos(), "call of //repro:requires-lock %s from %s, which neither holds the lock (no //repro:requires-lock or //repro:locked) nor acquires it before this call", callee.Name(), fd.Name.Name)
			}
			return true
		})
	}
	return nil
}

// lockMethodNames are the acquire spellings the library uses:
// sync.Mutex/RWMutex.
var lockMethodNames = map[string]bool{"Lock": true, "RLock": true}

// acquireBefore reports whether fd's body contains a lock-acquire call
// lexically before pos.
func acquireBefore(fd *ast.FuncDecl, pos token.Pos, p *Pass) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found || (n != nil && n.Pos() >= pos) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && lockMethodNames[sel.Sel.Name] {
			found = true
		}
		return !found
	})
	return found
}
