package lint

// lockorder: deadlock prevention by declared lock ranks, checked with a
// forward dataflow over the CFG. Every mutex that participates in
// nesting carries //repro:lockclass <name> <rank> (on the field, or on
// an accessor function returning it); the analyzer computes the set of
// classes held at every acquire site and records a class-level
// acquisition edge held → acquired for each. An edge is legal only if
// the rank strictly increases; a rank inversion, a same-class re-acquire
// while an instance is held, or an edge that closes a cycle in the
// acquisition graph is reported at its first site.
//
// The held-set analysis is flow-sensitive (an Unlock before the next
// Lock removes the class — the WAL's group-commit hand-off acquires its
// two mutexes strictly sequentially and must not be flagged) and models
// the repository's idioms:
//
//   - x.mu.Lock()/RLock()/Unlock()/RUnlock() on an annotated field;
//   - st := s.stripe(k); st.Lock(): a local assigned from a //repro:lockclass
//     accessor function (or from &classedField / classedArray[i])
//     carries the class;
//   - deferred unlocks do NOT release (the lock is held to function
//     exit), which is exactly what makes Reset's mu-held-then-smu
//     acquisition an edge;
//   - calls of same-package functions add their transitively-acquired
//     classes as edges from everything currently held.
//
// The same transfer, run a second time as a must-hold analysis (join is
// intersection), checks //repro:requires-lock <class>: a call of such a
// function is legal only where <class> is held exclusively on every
// path to it. Only Lock sets a must-bit — an RLock does not meet a
// write-side obligation — and a requires-lock function starts with its
// own class held, so the obligation propagates outward to the caller
// that does acquire. A function literal starts with nothing held: it may
// run on another goroutine, or after its creator unlocks.
//
// Classes are per-package (ranks live with the fields), and the rank
// bands are a module-wide convention documented in ANNOTATIONS.md so
// cross-package nesting — DurableMap(10,20) → cmap shard(30) → WAL
// (40,50) → wire server(60) — stays increasing by construction.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/cfg"
)

// LockOrder is the lockorder analyzer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "//repro:lockclass ranks strictly increase along every lock-acquisition edge, with no cycles; //repro:requires-lock functions are called only with their class held",
	Run:  runLockOrder,
}

// lockClass is one declared class.
type lockClass struct {
	name string
	rank int
	id   int // bit position in held-set masks
}

func runLockOrder(p *Pass) error {
	lc := collectLockClasses(p)
	decls := funcDecls(p)
	acq := acquireSummaries(p, lc, decls)

	// Record acquisition edges across every function at dataflow fixpoint,
	// and check each requires-lock call against the must-held set.
	edges := map[[2]int]token.Pos{}
	for _, fd := range sortedDecls(decls) {
		if fd.Body == nil {
			continue
		}
		lf := &lockFlow{p: p, ci: lc, locals: localAliases(p, fd, lc), decls: decls, acq: acq}
		recordEdges(lf, fd, edges)
		checkRequiresLock(lf, fd)
	}

	reportLockEdges(p, lc, edges)
	return nil
}

// classIndex resolves annotated mutex fields and accessor functions, and
// the class each //repro:requires-lock function needs held.
type classIndex struct {
	classes  []*lockClass
	byName   map[string]*lockClass
	fields   map[*types.Var]*lockClass    // annotated mutex fields (Origin)
	funcs    map[*types.Func]*lockClass   // annotated accessor functions
	requires map[*ast.FuncDecl]*lockClass // //repro:requires-lock functions
}

func (ci *classIndex) intern(p *Pass, name string, rank int, pos token.Pos) *lockClass {
	if c, ok := ci.byName[name]; ok {
		if c.rank != rank {
			p.Reportf(pos, "//repro:lockclass %s declared with rank %d here but rank %d elsewhere — one class, one rank", name, rank, c.rank)
		}
		return c
	}
	c := &lockClass{name: name, rank: rank, id: len(ci.classes)}
	ci.classes = append(ci.classes, c)
	ci.byName[name] = c
	return c
}

func collectLockClasses(p *Pass) *classIndex {
	ci := &classIndex{
		byName:   map[string]*lockClass{},
		fields:   map[*types.Var]*lockClass{},
		funcs:    map[*types.Func]*lockClass{},
		requires: map[*ast.FuncDecl]*lockClass{},
	}
	dirs := p.Directives()
	// Annotated struct fields.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				dir, ok := dirs.Field(field, DirLockClass)
				if !ok {
					continue
				}
				name, rank, ok := parseLockClassArgs(dir.Args)
				if !ok {
					p.Reportf(dir.Pos, "//repro:lockclass wants `<name> <rank>`, got %q", dir.Args)
					continue
				}
				c := ci.intern(p, name, rank, dir.Pos)
				for _, id := range field.Names {
					if v, ok := p.TypesInfo.Defs[id].(*types.Var); ok {
						ci.fields[v.Origin()] = c
					}
				}
			}
			return true
		})
	}
	// Annotated accessor functions (e.g. stripe() returning &s.stripes[i]).
	for fn, fd := range p.FuncDecls() {
		if dir, ok := dirs.Func(fd, DirLockClass); ok {
			name, rank, ok := parseLockClassArgs(dir.Args)
			if !ok {
				p.Reportf(dir.Pos, "//repro:lockclass wants `<name> <rank>`, got %q", dir.Args)
				continue
			}
			ci.funcs[fn.Origin()] = ci.intern(p, name, rank, dir.Pos)
		}
	}
	// Requires-lock functions, once every class is known.
	for _, fd := range p.FuncDecls() {
		if dir, ok := dirs.Func(fd, DirRequiresLck); ok {
			c, ok := ci.byName[dir.Args]
			if !ok {
				p.Reportf(dir.Pos, "//repro:requires-lock wants `<class>` naming a //repro:lockclass of this package, got %q", dir.Args)
				continue
			}
			ci.requires[fd] = c
		}
	}
	return ci
}

func parseLockClassArgs(args string) (string, int, bool) {
	fields := strings.Fields(args)
	if len(fields) != 2 {
		return "", 0, false
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil {
		return "", 0, false
	}
	return fields[0], rank, true
}

// lockEvent is one acquire or release resolved at a call site.
type lockEvent struct {
	class   *lockClass
	acquire bool
	shared  bool // RLock/RUnlock
	// summary holds transitively-acquired classes for plain in-package
	// calls (class == nil then).
	summary uint64
	// needs is the class a //repro:requires-lock callee must be called
	// with, and callee its name.
	needs  *lockClass
	callee string
	pos    token.Pos
}

// resolveLockEvent classifies a call expression, using the per-function
// local alias map (locals) for `st := s.stripe(k); st.Lock()` shapes.
func resolveLockEvent(p *Pass, call *ast.CallExpr, ci *classIndex, locals map[types.Object]*lockClass, decls map[*types.Func]*ast.FuncDecl, acq map[*ast.FuncDecl]uint64) (lockEvent, bool) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		isAcq := name == "Lock" || name == "RLock"
		isRel := name == "Unlock" || name == "RUnlock"
		if isAcq || isRel {
			if c := classOfMutexExpr(p, sel.X, ci, locals); c != nil {
				shared := name == "RLock" || name == "RUnlock"
				return lockEvent{class: c, acquire: isAcq, shared: shared, pos: call.Pos()}, true
			}
		}
	}
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil || fn.Pkg() != p.Pkg {
		return lockEvent{}, false
	}
	if fd, ok := decls[fn.Origin()]; ok {
		ev := lockEvent{summary: acq[fd], needs: ci.requires[fd], callee: fn.Name(), pos: call.Pos()}
		if ev.summary != 0 || ev.needs != nil {
			return ev, true
		}
	}
	return lockEvent{}, false
}

// classOfMutexExpr resolves the expression a Lock/Unlock is called on:
// a selector ending in an annotated field, an index into an annotated
// array field, or a local carrying a class through the alias map.
func classOfMutexExpr(p *Pass, e ast.Expr, ci *classIndex, locals map[types.Object]*lockClass) *lockClass {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := p.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			if c, ok := ci.fields[v.Origin()]; ok {
				return c
			}
		}
	case *ast.IndexExpr: // s.stripes[i].Lock()
		return classOfMutexExpr(p, e.X, ci, locals)
	case *ast.Ident:
		obj := p.TypesInfo.Uses[e]
		if obj == nil {
			return nil
		}
		return locals[obj]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return classOfMutexExpr(p, e.X, ci, locals)
		}
	}
	return nil
}

// localAliases scans a body once for `x := <class-carrying expr>`
// assignments: address-of / index of an annotated field, or a call of an
// annotated accessor. Flow-insensitive — good enough for the
// take-the-stripe-then-lock-it idiom.
func localAliases(p *Pass, fd *ast.FuncDecl, ci *classIndex) map[types.Object]*lockClass {
	locals := map[types.Object]*lockClass{}
	inspectNoFuncLit(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.TypesInfo.Defs[id]
			if obj == nil {
				obj = p.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if c := classOfValueExpr(p, as.Rhs[i], ci, locals); c != nil {
				locals[obj] = c
			}
		}
	})
	return locals
}

func classOfValueExpr(p *Pass, e ast.Expr, ci *classIndex, locals map[types.Object]*lockClass) *lockClass {
	switch e := unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return classOfMutexExpr(p, e.X, ci, locals)
		}
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.Ident:
		return classOfMutexExpr(p, e.(ast.Expr), ci, locals)
	case *ast.CallExpr:
		if fn := calleeFunc(p.TypesInfo, e); fn != nil {
			if c, ok := ci.funcs[fn.Origin()]; ok {
				return c
			}
		}
	}
	return nil
}

// acquireSummaries computes, to fixpoint, the set of classes each
// package function may acquire directly or through in-package calls.
func acquireSummaries(p *Pass, ci *classIndex, decls map[*types.Func]*ast.FuncDecl) map[*ast.FuncDecl]uint64 {
	acq := map[*ast.FuncDecl]uint64{}
	for changed := true; changed; {
		changed = false
		for _, fd := range sortedDecls(decls) {
			if fd.Body == nil {
				continue
			}
			locals := localAliases(p, fd, ci)
			var sum uint64
			inspectNoFuncLit(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				ev, ok := resolveLockEvent(p, call, ci, locals, decls, acq)
				if !ok {
					return
				}
				if ev.class != nil && ev.acquire {
					sum |= 1 << ev.class.id
				}
				sum |= ev.summary
			})
			if sum != acq[fd] {
				acq[fd] = sum
				changed = true
			}
		}
	}
	return acq
}

// lockFlow is one function's context for the held-set dataflows.
type lockFlow struct {
	p      *Pass
	ci     *classIndex
	locals map[types.Object]*lockClass
	decls  map[*types.Func]*ast.FuncDecl
	acq    map[*ast.FuncDecl]uint64
}

// apply is the transfer for one CFG node: it applies n's lock events in
// order to the held mask, calling visit (when non-nil) with each event
// and the mask held just before it. With must set only an exclusive Lock
// sets a class bit; otherwise Lock and RLock both do.
func (lf *lockFlow) apply(n ast.Node, held uint64, must bool, visit func(lockEvent, uint64)) uint64 {
	_, deferred := n.(*ast.DeferStmt)
	inspectNoFuncLit(n, func(d ast.Node) {
		call, ok := d.(*ast.CallExpr)
		if !ok {
			return
		}
		ev, ok := resolveLockEvent(lf.p, call, lf.ci, lf.locals, lf.decls, lf.acq)
		if !ok {
			return
		}
		if visit != nil {
			visit(ev, held)
		}
		switch {
		case ev.class == nil: // an in-package call: the held set is unchanged
		case ev.acquire:
			if !must || !ev.shared {
				held |= 1 << ev.class.id
			}
		case !deferred:
			held &^= 1 << ev.class.id // a deferred unlock holds to exit
		}
	})
	return held
}

// solve runs apply over g to fixpoint from the entry mask — a may-hold
// analysis (join is union) or, with must set, a must-hold one (join is
// intersection, every other block starting from all-ones) — then replays
// each reachable block once with visit.
func (lf *lockFlow) solve(g *cfg.Graph, must bool, entry uint64, visit func(lockEvent, uint64)) {
	init, join := uint64(0), func(a, b uint64) uint64 { return a | b }
	if must {
		init, join = ^uint64(0), func(a, b uint64) uint64 { return a & b }
	}
	in := cfg.Forward(g, cfg.ForwardProblem[uint64]{
		Entry: entry,
		Init:  func(*cfg.Block) uint64 { return init },
		Join:  join,
		Equal: func(a, b uint64) bool { return a == b },
		Transfer: func(b *cfg.Block, held uint64) uint64 {
			for _, n := range b.Nodes {
				held = lf.apply(n, held, must, nil)
			}
			return held
		},
	})
	for _, b := range g.Blocks {
		if !g.Reachable(b) {
			continue
		}
		held := in[b.Index]
		for _, n := range b.Nodes {
			held = lf.apply(n, held, must, visit)
		}
	}
}

// recordEdges runs the may-held dataflow over fd and records a
// held → acquired edge for every acquisition made with locks held.
func recordEdges(lf *lockFlow, fd *ast.FuncDecl, edges map[[2]int]token.Pos) {
	g := lf.p.CFG(fd)
	if g == nil {
		return
	}
	lf.solve(g, false, 0, func(ev lockEvent, held uint64) {
		acquired := ev.summary
		if ev.class != nil && ev.acquire {
			acquired |= 1 << ev.class.id
		}
		for _, c := range lf.ci.classes {
			if held&(1<<c.id) == 0 {
				continue
			}
			for _, t := range lf.ci.classes {
				if acquired&(1<<t.id) == 0 {
					continue
				}
				key := [2]int{c.id, t.id}
				if _, seen := edges[key]; !seen {
					edges[key] = ev.pos
				}
			}
		}
	})
}

// checkRequiresLock runs the must-held dataflow over fd's body and over
// each function literal in it, reporting every requires-lock call whose
// class is not held exclusively on every path to it.
func checkRequiresLock(lf *lockFlow, fd *ast.FuncDecl) {
	check := func(g *cfg.Graph, entry uint64, from string) {
		lf.solve(g, true, entry, func(ev lockEvent, held uint64) {
			if ev.needs != nil && held&(1<<ev.needs.id) == 0 {
				lf.p.Reportf(ev.pos, "call of //repro:requires-lock %s from %s, which does not hold %s exclusively on every path to this call", ev.callee, from, ev.needs.name)
			}
		})
	}
	var entry uint64
	if c, ok := lf.ci.requires[fd]; ok {
		entry = 1 << c.id
	}
	check(lf.p.CFG(fd), entry, fd.Name.Name)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			check(cfg.New(lit.Body), 0, "a function literal in "+fd.Name.Name)
		}
		return true
	})
}

// reportLockEdges checks every recorded edge for rank inversions and
// cycle closure.
func reportLockEdges(p *Pass, ci *classIndex, edges map[[2]int]token.Pos) {
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return edges[keys[i]] < edges[keys[j]] })

	adj := map[int][]int{}
	for _, k := range keys {
		from, to := ci.classes[k[0]], ci.classes[k[1]]
		switch {
		case from == to:
			p.Reportf(edges[k], "lock class %s (rank %d) acquired while an instance of the same class is already held — ranks must strictly increase", to.name, to.rank)
		case from.rank >= to.rank:
			p.Reportf(edges[k], "lock order inversion: %s (rank %d) acquired while holding %s (rank %d) — ranks must strictly increase", to.name, to.rank, from.name, from.rank)
		}
		adj[k[0]] = append(adj[k[0]], k[1])
	}

	// Report each cycle once, at the edge that closes it.
	for _, k := range keys {
		if k[0] == k[1] {
			continue // self-edges already reported
		}
		if path := findPath(adj, k[1], k[0]); path != nil {
			names := make([]string, 0, len(path)+1)
			for _, id := range append(path, k[1]) {
				names = append(names, ci.classes[id].name)
			}
			p.Reportf(edges[k], "lock classes form an acquisition cycle: %s", strings.Join(names, " -> "))
			return // one cycle report per package keeps the signal readable
		}
	}
}

// findPath returns a path from src to dst in adj, or nil.
func findPath(adj map[int][]int, src, dst int) []int {
	seen := map[int]bool{src: true}
	var dfs func(cur int, path []int) []int
	dfs = func(cur int, path []int) []int {
		if cur == dst {
			return append(path, cur)
		}
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				if r := dfs(next, append(path, cur)); r != nil {
					return r
				}
			}
		}
		return nil
	}
	return dfs(src, nil)
}
