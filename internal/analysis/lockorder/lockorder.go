// Package lockorder implements the sharingvet lockorder analyzer: the
// mutex-acquisition discipline of the layered GRM (grm.Server,
// transport.Server, the LRM client wires, the pipeline scheduler).
//
// It builds, per package, a mutex-acquisition graph over the framework
// call graph (internal/analysis CallGraph): mutexes are identified by
// their owning type and field ("Server.mu", "binWire.wmu"), and an edge
// A → B is recorded whenever B is acquired — directly or through any
// resolved callee's may-acquire set — at a point where A is held on
// every path. The analyzer reports:
//
//   - acquisition cycles (lock-order inversions): A → B somewhere and
//     B → A somewhere else deadlock two goroutines; any cycle in the
//     graph is reported once;
//   - double acquisition: locking a mutex that is already held on every
//     path (sync.Mutex is not reentrant — this is a guaranteed
//     self-deadlock), including a *Locked helper locking the mutex its
//     suffix promises the caller already holds;
//   - calls that may re-acquire a held mutex through their transitive
//     may-acquire set;
//   - the *Locked suffix convention: a method named *Locked on a
//     receiver with mutex fields requires those mutexes held at entry.
//     A caller must hold them on every path to the call; a caller that
//     manages the same mutex itself but does not must-hold it at the
//     call site is reported. A caller that never touches the mutex
//     inherits the requirement instead (it is a pass-through helper,
//     like the grm dispatch handlers), and an exported function that
//     still carries an inherited requirement is reported — external
//     callers cannot hold an unexported mutex.
//
// Held-ness is the must-held view of the framework's lock walker
// (analysis.WalkLocks): intersection at branch joins, so a mutex released
// on any path is not considered held. A lock state correlated with a flag
// — released on one branch and re-acquired on a later one guarded by the
// same flag — therefore reads as not held, and a *Locked call after it is
// reported; the GRM plans under s.mu and has no such shape. Function
// literals and go/defer statements are not walked.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer checks mutex acquisition order and the *Locked convention.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "builds the mutex-acquisition graph; flags cycles, double acquisition, and *Locked-suffix convention violations",
	Run:  run,
}

// edge is one acquisition-order edge with a witness position.
type edge struct {
	to  string
	pos token.Pos
}

type checker struct {
	pass *analysis.Pass
	cg   *analysis.CallGraph
	// directAcq and mayAcq map each function to the mutexes it acquires
	// itself / transitively through resolved callees.
	directAcq map[*types.Func]map[string]token.Pos
	mayAcq    map[*types.Func]map[string]token.Pos
	// requires maps each function to the mutexes its callers must hold:
	// seeded by the *Locked suffix, propagated through pass-through
	// callers by walkAll before the reporting pass.
	requires map[*types.Func]map[string]bool
	// edges is the acquisition graph: edges[A] holds every B acquired
	// while A was must-held.
	edges map[string][]edge

	report  bool // final pass: emit diagnostics and edges
	changed bool // propagate pass: a requires set grew
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		cg:        pass.CallGraph(),
		directAcq: map[*types.Func]map[string]token.Pos{},
		mayAcq:    map[*types.Func]map[string]token.Pos{},
		requires:  map[*types.Func]map[string]bool{},
		edges:     map[string][]edge{},
	}
	c.buildAcquireSets()
	c.seedRequires()
	// Propagate inherited requirements to a fixpoint, then report.
	for c.changed = true; c.changed; {
		c.changed = false
		c.walkAll()
	}
	c.report = true
	c.walkAll()
	c.reportExportedRequires()
	c.reportCycles()
	return nil
}

// buildAcquireSets computes the direct and transitive may-acquire sets.
func (c *checker) buildAcquireSets() {
	for _, f := range c.cg.Funcs() {
		acq := map[string]token.Pos{}
		analysis.WalkLocks(c.pass.TypesInfo, c.cg.DeclOf(f).Body, analysis.LockState{}, analysis.LockHooks{
			Lock: func(l analysis.HeldLock, _ analysis.LockState) {
				if _, ok := acq[l.Key]; !ok {
					acq[l.Key] = l.Pos
				}
			},
		})
		c.directAcq[f], c.mayAcq[f] = acq, maps.Clone(acq)
	}
	c.cg.Fixpoint(func(f *types.Func) bool {
		changed := false
		for _, site := range c.cg.CalleesOf(f) {
			for k, v := range c.mayAcq[site.Callee] {
				if _, ok := c.mayAcq[f][k]; !ok {
					c.mayAcq[f][k] = v
					changed = true
				}
			}
		}
		return changed
	})
}

// seedRequires marks every *Locked method with mutex-bearing receiver as
// requiring those mutexes held at entry.
func (c *checker) seedRequires() {
	for _, f := range c.cg.Funcs() {
		if !strings.HasSuffix(f.Name(), "Locked") {
			continue
		}
		recv := analysis.RecvNamed(f)
		fields := analysis.MutexFields(recv)
		if len(fields) == 0 {
			continue
		}
		req := map[string]bool{}
		for _, field := range fields {
			req[recv.Obj().Name()+"."+field] = true
		}
		c.requires[f] = req
	}
}

// walkAll interprets every function body tracking the must-held set.
func (c *checker) walkAll() {
	for _, f := range c.cg.Funcs() {
		decl := c.cg.DeclOf(f)
		entry := map[string]analysis.HeldLock{}
		if req := c.requires[f]; len(req) > 0 {
			recvName := ""
			if decl.Recv != nil && len(decl.Recv.List) > 0 && len(decl.Recv.List[0].Names) > 0 {
				recvName = decl.Recv.List[0].Names[0].Name
			}
			for key := range req {
				expr := key
				if i := strings.IndexByte(key, '.'); i >= 0 && recvName != "" {
					expr = recvName + key[i:]
				}
				entry[key] = analysis.HeldLock{Key: key, Expr: expr, Pos: decl.Name.Pos(), Entry: true}
			}
		}
		analysis.WalkLocks(c.pass.TypesInfo, decl.Body, analysis.LockState{Must: entry}, analysis.LockHooks{
			Lock: func(l analysis.HeldLock, st analysis.LockState) { c.onAcquire(f, l, st.Must) },
			Leaf: func(n ast.Node, st analysis.LockState) { c.checkCalls(f, n, st.Must) },
		})
	}
}

// onAcquire handles one direct Lock: double-acquisition and acquisition
// edges from every must-held mutex.
func (c *checker) onAcquire(f *types.Func, l analysis.HeldLock, held map[string]analysis.HeldLock) {
	if !c.report {
		return
	}
	if prev, ok := held[l.Key]; ok && prev.Expr == l.Expr {
		if prev.Entry {
			c.pass.Reportf(l.Pos, "%s is a *Locked helper: it must not acquire %s, which its caller already holds by convention", f.Name(), l.Key)
		} else {
			c.pass.Reportf(l.Pos, "%s acquired again while already held (not reentrant; first acquired at %s)", l.Key, c.pass.Fset.Position(prev.Pos))
		}
		return
	}
	for heldKey := range held {
		if heldKey != l.Key {
			c.edges[heldKey] = append(c.edges[heldKey], edge{to: l.Key, pos: l.Pos})
		}
	}
}

// checkCalls inspects one leaf of the lock walk for resolved calls,
// applying the requires check and recording acquisition edges through
// callee may-acquire sets. A select statement stands for its
// communications.
func (c *checker) checkCalls(f *types.Func, n ast.Node, held map[string]analysis.HeldLock) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, cl := range node.Body.List {
				if comm := cl.(*ast.CommClause).Comm; comm != nil {
					c.checkCalls(f, comm, held)
				}
			}
			return false
		case *ast.CallExpr:
			for _, site := range analysis.ResolveCall(c.pass.Pkg, c.pass.TypesInfo, node, c.cg.Decls()) {
				c.checkCallSite(f, site.Callee, node.Pos(), held)
			}
		}
		return true
	})
}

func (c *checker) checkCallSite(f, callee *types.Func, pos token.Pos, held map[string]analysis.HeldLock) {
	for key := range c.requires[callee] {
		if _, ok := held[key]; ok {
			continue
		}
		if _, manages := c.directAcq[f][key]; manages {
			if c.report {
				c.pass.Reportf(pos, "call to %s requires %s held, but it is not held on every path to this call", callee.Name(), key)
			}
		} else if !c.report {
			// A pass-through helper inherits the requirement.
			if c.requires[f] == nil {
				c.requires[f] = map[string]bool{}
			}
			if !c.requires[f][key] {
				c.requires[f][key] = true
				c.changed = true
			}
		}
	}
	if !c.report {
		return
	}
	for acqKey := range c.mayAcq[callee] {
		if _, ok := held[acqKey]; ok {
			if _, isRequired := c.requires[callee][acqKey]; !isRequired {
				c.pass.Reportf(pos, "call to %s may acquire %s, which is already held here (possible self-deadlock)", callee.Name(), acqKey)
			}
			continue
		}
		for heldKey := range held {
			c.edges[heldKey] = append(c.edges[heldKey], edge{to: acqKey, pos: pos})
		}
	}
}

// reportExportedRequires flags exported functions that inherited a mutex
// requirement: their callers live outside the package and cannot hold an
// unexported mutex.
func (c *checker) reportExportedRequires() {
	for _, f := range c.cg.Funcs() {
		if !f.Exported() || strings.HasSuffix(f.Name(), "Locked") {
			continue
		}
		var keys []string
		for key := range c.requires[f] {
			keys = append(keys, key)
		}
		if len(keys) == 0 {
			continue
		}
		sort.Strings(keys)
		c.pass.Reportf(c.cg.DeclOf(f).Name.Pos(),
			"exported %s requires %s held by its caller (inherited from a *Locked callee); external callers cannot hold it",
			f.Name(), strings.Join(keys, ", "))
	}
}

// reportCycles finds cycles in the acquisition graph and reports each
// once, anchored at a witness edge.
func (c *checker) reportCycles() {
	keys := make([]string, 0, len(c.edges))
	for k := range c.edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, es := range c.edges {
		sort.Slice(es, func(i, j int) bool { return es[i].to < es[j].to })
	}
	seen := map[string]bool{}
	var path []string
	onPath := map[string]int{}
	var dfs func(node string)
	dfs = func(node string) {
		if i, ok := onPath[node]; ok {
			cycle := append([]string(nil), path[i:]...)
			canon := canonicalCycle(cycle)
			if !seen[canon] {
				seen[canon] = true
				pos := c.edges[cycle[0]][0].pos
				for _, e := range c.edges[cycle[0]] {
					if e.to == cycle[(1)%len(cycle)] {
						pos = e.pos
						break
					}
				}
				c.pass.Reportf(pos, "lock order cycle: %s → %s", strings.Join(cycle, " → "), cycle[0])
			}
			return
		}
		onPath[node] = len(path)
		path = append(path, node)
		for _, e := range c.edges[node] {
			dfs(e.to)
		}
		path = path[:len(path)-1]
		delete(onPath, node)
	}
	for _, k := range keys {
		dfs(k)
	}
}

// canonicalCycle rotates a cycle so its smallest key leads, giving a
// stable dedupe token.
func canonicalCycle(cycle []string) string {
	min := 0
	for i, k := range cycle {
		if k < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	return strings.Join(rotated, "→")
}
