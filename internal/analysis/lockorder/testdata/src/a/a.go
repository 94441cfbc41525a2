// Package a is the lockorder golden corpus: acquisition cycles, double
// acquisition, the *Locked suffix convention, and the pass-through
// requirement propagation, each with a clean twin.
package a

import "sync"

// --- acquisition-order cycle, one edge through a callee ---

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func lockB(b *B) {
	b.mu.Lock()
	b.mu.Unlock()
}

func orderAB(a *A, b *B) {
	a.mu.Lock()
	lockB(b) // want `lock order cycle: A\.mu → B\.mu → A\.mu`
	a.mu.Unlock()
}

func orderBA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// --- double acquisition of the same mutex ---

func doubleAcquire() {
	var mu sync.Mutex
	mu.Lock()
	mu.Lock() // want `mu acquired again while already held`
	mu.Unlock()
}

// --- the *Locked suffix convention ---

type S struct {
	mu sync.Mutex
	n  int
}

// bumpLocked mutates state; its suffix promises the caller holds s.mu.
func (s *S) bumpLocked() { s.n++ }

// selfLocked violates the convention: it acquires the mutex its own
// suffix says the caller already holds.
func (s *S) selfLocked() {
	s.mu.Lock() // want `selfLocked is a \*Locked helper: it must not acquire S\.mu`
	s.n++
	s.mu.Unlock()
}

// badCaller manages s.mu itself but calls the *Locked helper after
// releasing it.
func (s *S) badCaller() {
	s.mu.Lock()
	s.n = 0
	s.mu.Unlock()
	s.bumpLocked() // want `call to bumpLocked requires S\.mu held`
}

// goodCaller holds the mutex across the helper call.
func (s *S) goodCaller() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpLocked()
}

// passThrough never touches s.mu: it inherits bumpLocked's requirement
// instead of being reported, like the grm dispatch handlers.
func (s *S) passThrough() { s.bumpLocked() }

// dispatch holds the mutex around the pass-through helper: clean.
func (s *S) dispatch() {
	s.mu.Lock()
	s.passThrough()
	s.mu.Unlock()
}

// Exported inherited the requirement but is exported: callers outside
// the package cannot hold an unexported mutex.
func (s *S) Exported() { // want `exported Exported requires S\.mu held by its caller`
	s.bumpLocked()
}

// optimistic releases the lock on a flag-correlated path the analyzer
// cannot see through: must-hold is empty at the helper call.
func (s *S) optimistic(stale bool) {
	s.mu.Lock()
	if !stale {
		s.mu.Unlock()
	}
	if !stale {
		s.mu.Lock()
	}
	s.bumpLocked() // want `call to bumpLocked requires S\.mu held`
	s.mu.Unlock()
}

// optimisticJustified is the same pattern with a justified suppression.
func (s *S) optimisticJustified(stale bool) {
	s.mu.Lock()
	if !stale {
		s.mu.Unlock()
	}
	if !stale {
		s.mu.Lock()
	}
	//lint:ignore sharingvet/lockorder the lock state is correlated with the stale flag on every path
	s.bumpLocked()
	s.mu.Unlock()
}

// multiSuppressed exercises one directive naming several analyzers.
func (s *S) multiSuppressed() {
	s.mu.Lock()
	s.mu.Unlock()
	//lint:ignore sharingvet/lockorder,lockedio covered by a single directive
	s.bumpLocked()
}

// --- chained *Locked mutators, the grm planner-patch shape ---

// G mirrors grm.Server's mutator paths: a handler takes the mutex, a
// *Locked mutator updates the books and then patches derived planner
// state through a second *Locked helper.
type G struct {
	mu      sync.Mutex
	books   int
	planner int
}

// patchPlannerLocked is the innermost mutator: entry-held by convention.
func (g *G) patchPlannerLocked() { g.planner++ }

// shareLocked chains to the patch helper; the entry-held s.mu satisfies
// the callee's requirement, so the chain is clean.
func (g *G) shareLocked() {
	g.books++
	g.patchPlannerLocked()
}

// handleShare is the handler shape: lock, mutate through the chain,
// unlock. Clean.
func (g *G) handleShare() {
	g.mu.Lock()
	g.shareLocked()
	g.mu.Unlock()
}

// patchOutsideLock drops the lock before patching derived state: the
// chained requirement is enforced at the first *Locked call.
func (g *G) patchOutsideLock() {
	g.mu.Lock()
	g.books = 0
	g.mu.Unlock()
	g.shareLocked() // want `call to shareLocked requires G\.mu held`
}

// rebuildLocked re-acquiring its own convention-held mutex is the
// self-deadlock the suffix is meant to prevent.
func (g *G) rebuildLocked() {
	g.mu.Lock() // want `rebuildLocked is a \*Locked helper: it must not acquire G\.mu`
	g.planner = 0
	g.mu.Unlock()
}

// --- re-acquisition through a call ---

func (s *S) relock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *S) reentrant() {
	s.mu.Lock()
	s.relock() // want `call to relock may acquire S\.mu, which is already held`
	s.mu.Unlock()
}

// --- interface-resolved edges stay acyclic and unreported ---

type closer interface{ close() }

type w1 struct{ mu sync.Mutex }

func (w *w1) close() {
	w.mu.Lock()
	w.mu.Unlock()
}

type holder struct {
	mu sync.Mutex
	c  closer
}

// shutdown holds holder.mu across an interface call that locks w1.mu:
// a legitimate ordering edge, no cycle, no finding.
func (h *holder) shutdown() {
	h.mu.Lock()
	h.c.close()
	h.mu.Unlock()
}

// branchRelease releases on the error path and returns: the fall-through
// keeps the lock, no finding.
func (s *S) branchRelease(ok bool) {
	s.mu.Lock()
	if !ok {
		s.mu.Unlock()
		return
	}
	s.bumpLocked()
	s.mu.Unlock()
}

// --- a for statement's Post and a type switch's Assign run under the lock ---

func (s *S) forPostRelock() {
	s.mu.Lock()
	for i := 0; i < 2; s.relock() { // want `call to relock may acquire S\.mu, which is already held`
		i++
	}
	s.mu.Unlock()
}

func (s *S) snapshot() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *S) typeSwitchRelock() {
	s.mu.Lock()
	switch s.snapshot().(type) { // want `call to snapshot may acquire S\.mu, which is already held`
	case int:
	}
	s.mu.Unlock()
}
