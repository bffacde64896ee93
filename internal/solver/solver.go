// Package solver implements a CDCL SAT solver with watched literals,
// first-UIP conflict learning, phase saving, and activity-ordered
// decisions: the stand-in for Z3 in the paper's incremental-solving
// argument (§2). Clause addition is monotonic — exactly the p, then p∧q
// pattern — so a solved instance extends incrementally: learned clauses and
// saved phases carry over, which is the "leverage the intermediate data
// structures of previously solved constraints" behaviour the paper's
// lightweight snapshots capture wholesale.
package solver

import (
	"errors"
	"fmt"
	"slices"
)

// Status is a solver verdict.
type Status int8

// Verdicts.
const (
	// Unknown: the conflict budget expired before a verdict.
	Unknown Status = iota
	// Sat: a satisfying assignment was found (see Model).
	Sat
	// Unsat: the clause set is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Stats counts solver work.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
	Restarts     int64
}

// VarLimit is the largest variable index a solver accepts. Per-variable
// state is allocated up to the largest index named, so an unbounded index
// is an unbounded allocation: AddClause refuses a literal beyond the limit
// and Unmarshal a state that claims more variables. 2*VarLimit+1 fits a
// lit with room to spare.
const VarLimit = 1 << 24

// lit encoding: variable v (1-based) → 2v for +v, 2v+1 for ¬v.
type lit int32

func toLit(l int) lit {
	if l > 0 {
		return lit(2 * l)
	}
	return lit(-2*l + 1)
}

// hot_path: one xor.
// inline:
func (l lit) neg() lit { return l ^ 1 }

// hot_path: one shift.
// inline:
func (l lit) variable() int { return int(l >> 1) }

// sign reports whether l is a positive literal.
// hot_path: one mask.
// inline:
func (l lit) sign() bool { return l&1 == 0 }

func (l lit) ext() int {
	if l.sign() {
		return l.variable()
	}
	return -l.variable()
}

// cref refers to a clause by the arena offset of its header word.
type cref int32

const crefNone cref = -1

type watch struct {
	c       cref
	blocker lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars int
	// arena holds every clause, problem and learnt, in the order added: a
	// header word (length<<1 | learnt) followed by the literals. Clauses
	// are never deleted, so every word is live, and references into the
	// arena are offsets, which survive its growth.
	arena    []lit
	nClauses int
	nLearnts int
	ok       bool // false once an empty clause is derived at level 0

	watches  [][]watch // indexed by lit
	assign   []int8    // by var: 0 unset, +1 true, -1 false
	level    []int32   // by var
	reason   []cref    // by var
	phase    []int8    // saved phase by var
	activity []float64 // by var
	varInc   float64

	// watchMem is the array Load cuts the watch lists from, watchCount its
	// per-literal tally: kept only so that the next Load reuses them.
	watchMem   []watch
	watchCount []int32

	// heap is a binary heap of variables ordered by decidesBefore; heapPos
	// is each variable's index in it, or -1. Every unassigned variable is
	// in the heap; assigned ones leave it lazily, when they reach the top.
	heap    []int32
	heapPos []int32

	trail    []lit // capacity covers every variable: enqueue never grows it
	trailLim []int
	qhead    int

	seen    []bool // scratch for conflict analysis
	scratch []lit  // a clause being built: AddClause's literals, analyze's learnt clause

	// loadedFrom and loadedLen identify the bytes the last successful Load
	// read, loadedWords the arena words it took from them: MarshalOnto
	// keeps those bytes instead of encoding the clauses again.
	loadedFrom  *byte
	loadedLen   int
	loadedWords int

	// memoRaw is the clause section of the last Load whose clauses all
	// decoded, memoArena the arena words they decoded to (taken before any
	// propagation swapped a watched literal), memoMaxVar the nVars they were
	// decoded under, a bound on every variable memoArena names. The next
	// Load copies the clauses whose bytes are unchanged instead of decoding
	// them again. They are a cache, not solver state: Reset keeps them, and
	// Unmarshal never fills them.
	memoRaw    []byte
	memoArena  []lit
	memoMaxVar int

	// heldClauses and heldPhases are ExtendFromPhases' memo (its last
	// answer's clause section and phases), kept by Reset like Load's.
	heldClauses []byte
	heldPhases  []byte

	Stats Stats
}

// New returns a solver over variables 1..nVars (growable via AddVar).
func New(nVars int) *Solver {
	s := &Solver{}
	s.Reset()
	s.grow(nVars)
	return s
}

// NumVars returns the current variable count.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return s.nClauses }

// NumLearnts returns the number of clauses this solver has learned. A
// solver rebuilt by Unmarshal starts at zero: the learned clauses of the
// marshalled state come back as problem clauses.
func (s *Solver) NumLearnts() int { return s.nLearnts }

// grow extends every per-variable array to nVars in one step each.
func (s *Solver) grow(nVars int) {
	if nVars <= s.nVars {
		return
	}
	s.nVars = nVars
	s.watches = append(s.watches, make([][]watch, 2*nVars+2-len(s.watches))...)
	from := len(s.assign)
	n := nVars + 1 - from
	s.assign = append(s.assign, make([]int8, n)...)
	s.level = append(s.level, make([]int32, n)...)
	s.reason = append(s.reason, make([]cref, n)...)
	s.phase = append(s.phase, make([]int8, n)...)
	s.activity = append(s.activity, make([]float64, n)...)
	s.seen = append(s.seen, make([]bool, n)...)
	s.heapPos = append(s.heapPos, make([]int32, n)...)
	s.trail = slices.Grow(s.trail, nVars-len(s.trail))
	s.heap = slices.Grow(s.heap, nVars-len(s.heap))
	for v := from; v <= nVars; v++ {
		s.reason[v] = crefNone
		s.phase[v] = -1
		s.heapPos[v] = -1
		if v > 0 {
			s.heapInsert(v)
		}
	}
}

// AddVar ensures variable v exists.
func (s *Solver) AddVar(v int) { s.grow(v) }

// valueLit is l's value under the current assignment: +1 true, -1 false,
// 0 unassigned.
// hot_path: one load.
// inline:
func (s *Solver) valueLit(l lit) int8 {
	v := s.assign[l.variable()]
	if v == 0 {
		return 0
	}
	if l.sign() {
		return v
	}
	return -v
}

// AddClause adds a clause of external literals (±var). It returns an error
// on malformed input — a literal 0, a variable beyond VarLimit — before
// changing anything. Adding clauses resets the solver to decision level 0
// but keeps learned clauses and phases (monotonic incrementality).
func (s *Solver) AddClause(extLits ...int) error {
	if !s.ok {
		return nil // already UNSAT; additional clauses are irrelevant
	}
	maxVar := 0
	for _, e := range extLits {
		if e == 0 {
			return errors.New("solver: literal 0")
		}
		v := max(e, -e)
		if v < 0 || v > VarLimit { // v < 0: -e overflowed
			return fmt.Errorf("solver: literal %d names a variable beyond VarLimit (%d)", e, VarLimit)
		}
		maxVar = max(maxVar, v)
	}
	s.cancelUntil(0)
	s.grow(maxVar)
	cl := s.scratch[:0]
	for _, e := range extLits {
		cl = append(cl, toLit(e))
	}
	s.scratch = cl
	// Normalize: sort (by variable, +v before ¬v — the order Load restores,
	// because it fixes the watched pair and with it the whole search),
	// dedupe, drop tautologies, drop false lits at L0.
	slices.Sort(cl)
	out := cl[:0]
	var prev lit = -1
	for _, l := range cl {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.neg() {
			return nil // tautology: x ∨ ¬x
		}
		switch s.valueLit(l) {
		case 1:
			return nil // satisfied at level 0
		case -1:
			continue // falsified at level 0: drop the literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
	case 1:
		s.enqueue(out[0], crefNone)
		if s.propagate() != crefNone {
			s.ok = false
		}
	default:
		s.store(out, false)
	}
	return nil
}

// lits returns clause c's literals: a view into the arena, valid until the
// next clause is stored.
//
// hot_path: one header load and a sub-slice.
// inline:
func (s *Solver) lits(c cref) []lit {
	n := int(s.arena[c] >> 1)
	return s.arena[int(c)+1 : int(c)+1+n]
}

// store copies cl (at least two literals, watched pair first) into the
// arena and watches it.
func (s *Solver) store(cl []lit, learnt bool) cref {
	c := cref(len(s.arena))
	hdr := lit(len(cl) << 1)
	if learnt {
		hdr |= 1
		s.nLearnts++
	} else {
		s.nClauses++
	}
	s.arena = append(append(s.arena, hdr), cl...)
	s.attach(c, cl)
	return c
}

// attach watches the first two literals of clause c.
func (s *Solver) attach(c cref, cl []lit) {
	s.watches[cl[0].neg()] = append(s.watches[cl[0].neg()], watch{c: c, blocker: cl[1]})
	s.watches[cl[1].neg()] = append(s.watches[cl[1].neg()], watch{c: c, blocker: cl[0]})
}

// hot_path: four stores; the trail's capacity covers every variable.
func (s *Solver) enqueue(l lit, from cref) {
	v := l.variable()
	if l.sign() {
		s.assign[v] = 1
	} else {
		s.assign[v] = -1
	}
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	n := len(s.trail)
	s.trail = s.trail[:n+1]
	s.trail[n] = l
}

// propagate performs unit propagation; it returns the conflicting clause
// reference or crefNone.
//
// hot_path: each watch list is compacted in place; the only growth is a
// watch moving to another literal's list.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		conflict := crefNone
		i, j := 0, 0
	scan:
		for i < len(ws) {
			w := ws[i]
			i++
			if s.valueLit(w.blocker) == 1 {
				ws[j] = w
				j++
				continue
			}
			cl := s.lits(w.c)
			// Ensure cl[1] is the falsified watch (p is ¬cl[i]).
			if cl[0].neg() == p {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if s.valueLit(cl[0]) == 1 {
				ws[j] = watch{c: w.c, blocker: cl[0]}
				j++
				continue
			}
			// Find a new literal to watch.
			for k := 2; k < len(cl); k++ {
				if s.valueLit(cl[k]) != -1 {
					cl[1], cl[k] = cl[k], cl[1]
					//lint:ignore hotpath amortized growth: a watch list doubles, O(1) per moved watch
					s.watches[cl[1].neg()] = append(s.watches[cl[1].neg()], watch{c: w.c, blocker: cl[0]})
					continue scan // watch moved; drop from this list
				}
			}
			ws[j] = w
			j++
			if s.valueLit(cl[0]) == -1 {
				conflict = w.c
				j += copy(ws[j:], ws[i:])
				break
			}
			s.enqueue(cl[0], w.c) // unit
		}
		s.watches[p] = ws[:j]
		if conflict != crefNone {
			return conflict
		}
	}
	return crefNone
}

// hot_path: one length.
// inline:
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// hot_path: unassigns the trail above lvl and returns its variables to the
// order heap.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].variable()
		s.phase[v] = s.assign[v] // phase saving
		s.assign[v] = 0
		s.reason[v] = crefNone
		s.heapInsert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// decidesBefore orders decisions: higher activity first, lower index on
// equal activity. It is a strict total order, so the heap's minimum is one
// particular variable however the heap came to be arranged — the variable
// a scan of 1..nVars keeping the first strictly greater activity finds.
//
// hot_path: two loads and a compare.
// inline:
func (s *Solver) decidesBefore(a, b int32) bool {
	return s.activity[a] > s.activity[b] || (s.activity[a] == s.activity[b] && a < b)
}

// hot_path: a sift of at most log2(nVars) steps.
func (s *Solver) siftUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.decidesBefore(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

// hot_path: a sift of at most log2(nVars) steps.
func (s *Solver) siftDown(i int) {
	v := s.heap[i]
	for {
		kid := 2*i + 1
		if kid >= len(s.heap) {
			break
		}
		if kid+1 < len(s.heap) && s.decidesBefore(s.heap[kid+1], s.heap[kid]) {
			kid++
		}
		if !s.decidesBefore(s.heap[kid], v) {
			break
		}
		s.heap[i] = s.heap[kid]
		s.heapPos[s.heap[i]] = int32(i)
		i = kid
	}
	s.heap[i] = v
	s.heapPos[v] = int32(i)
}

// heapInsert puts v into the order heap unless it is already there.
//
// hot_path: the heap's capacity covers every variable.
func (s *Solver) heapInsert(v int) {
	if s.heapPos[v] >= 0 {
		return
	}
	n := len(s.heap)
	s.heap = s.heap[:n+1]
	s.heap[n] = int32(v)
	s.siftUp(n)
}

// pickBranchVar returns the unassigned variable that decides before every
// other, or 0 when all are assigned.
//
// hot_path: pops assigned variables off the top until an unassigned one.
func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heap[0]
		s.heapPos[v] = -1
		last := s.heap[len(s.heap)-1]
		s.heap = s.heap[:len(s.heap)-1]
		if len(s.heap) > 0 {
			s.heap[0] = last
			s.siftDown(0)
		}
		if s.assign[v] == 0 {
			return int(v)
		}
	}
	return 0
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling can round distinct activities into a tie, which the
		// index then breaks the other way: re-establish the heap.
		for i := len(s.heap)/2 - 1; i >= 0; i-- {
			s.siftDown(i)
		}
	} else if i := s.heapPos[v]; i >= 0 {
		s.siftUp(int(i))
	}
}

// analyze performs first-UIP learning; returns the learned clause (with the
// asserting literal first; it lives in s.scratch) and the backjump level.
func (s *Solver) analyze(conflict cref) ([]lit, int) {
	learned := append(s.scratch[:0], 0) // slot for the asserting literal
	counter := 0
	var p lit = -1
	idx := len(s.trail) - 1

	c := conflict
	for {
		cl := s.lits(c)
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason
		}
		for _, q := range cl[start:] {
			v := q.variable()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Pick the next trail literal seen in the conflict graph.
		for !s.seen[s.trail[idx].variable()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.variable()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learned[0] = p.neg()
	// Compute backjump level = max level among the other literals.
	back := 0
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].variable()]) > back {
			back = int(s.level[learned[i].variable()])
		}
	}
	// Move a literal of the backjump level into watch position 1.
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].variable()]) == back {
			learned[1], learned[i] = learned[i], learned[1]
			break
		}
	}
	for i := 1; i < len(learned); i++ {
		s.seen[learned[i].variable()] = false
	}
	s.scratch = learned
	return learned, back
}

// Solve searches for a verdict within maxConflicts (0 = unlimited).
//
// Before searching it checks the model the saved phases describe: if every
// clause holds under the level-0 assignment completed by the phases, that
// is the assignment the search would end on, and Solve takes it without
// searching (see phasesSatisfy).
func (s *Solver) Solve(maxConflicts int64) Status {
	if s.ok {
		s.cancelUntil(0)
		// The clauses added since a Load are checked first: a Sat parent
		// saved its model as the phases, so all the loaded clauses held
		// under them, and a clause that fails now is most likely a new one.
		if s.propagate() != crefNone {
			s.ok = false
		} else if s.phasesSatisfy(s.loadedWords, len(s.arena)) && s.phasesSatisfy(0, s.loadedWords) {
			s.decidePhases()
			return Sat
		}
	}
	return s.search(maxConflicts)
}

// phasesSatisfy reports whether every clause in arena[from:to] (both at
// clause boundaries) has a literal that is true under the level-0
// assignment or, for an unassigned variable, under its saved phase
// (anything but -1 reads as true, as in a decision).
//
// Over the whole arena it is Solve's condition for skipping the search.
// The search decides each variable it picks from that same model, so by
// induction every literal it implies agrees with the model — a clause can
// become unit only on its one literal the model makes true — and no clause
// can become a conflict. It therefore ends on exactly this assignment, with no
// conflict, learnt clause, restart or activity change, and cancelUntil(0)
// saves the same phases afterwards. What differs is only how the watch
// lists, the literals inside clauses and the order heap are arranged.
// Marshal writes none of that, so a state reloaded from its bytes goes on
// exactly as after the search; a solver kept in memory and extended again
// may propagate in another order from here, to the same verdicts.
//
// hot_path: one read-only pass over the range.
func (s *Solver) phasesSatisfy(from, to int) bool {
	for c := from; c < to; {
		n := int(s.arena[c] >> 1)
		sat := false
		for _, l := range s.arena[c+1 : c+1+n] {
			v := s.assign[l.variable()]
			if v == 0 {
				v = s.phase[l.variable()]
			}
			if (v != -1) == l.sign() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
		c += 1 + n
	}
	return true
}

// decidePhases assigns every unassigned variable its saved phase at one
// decision level: the model phasesSatisfy checked, as the search would
// reach it.
func (s *Solver) decidePhases() {
	s.trailLim = append(s.trailLim, len(s.trail))
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v] != 0 {
			continue
		}
		l := toLit(v)
		if s.phase[v] == -1 {
			l = l.neg()
		}
		s.enqueue(l, crefNone)
		s.Stats.Decisions++
	}
	s.qhead = len(s.trail)
}

// search is Solve without the phase check: CDCL from level 0.
func (s *Solver) search(maxConflicts int64) Status {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != crefNone {
		s.ok = false
		return Unsat
	}
	conflicts := int64(0)
	restartAt := int64(100)
	for {
		conflict := s.propagate()
		if conflict != crefNone {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learned, back := s.analyze(conflict)
			s.cancelUntil(back)
			if len(learned) == 1 {
				s.enqueue(learned[0], crefNone)
			} else {
				s.enqueue(learned[0], s.store(learned, true))
				s.Stats.Learned++
			}
			s.varInc *= 1.0 / 0.95
			if maxConflicts > 0 && conflicts >= maxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			if conflicts >= restartAt {
				restartAt += restartAt / 2
				s.Stats.Restarts++
				s.cancelUntil(0)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat // complete assignment
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := toLit(v)
		if s.phase[v] == -1 {
			l = l.neg()
		}
		s.enqueue(l, crefNone)
	}
}

// Model returns the satisfying assignment after Sat: index = var, value =
// assignment. Index 0 is unused.
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		m[v] = s.assign[v] == 1
	}
	return m
}

// Verify checks a model against a clause set (external literals).
func Verify(model []bool, clauses [][]int) error {
	for i, cl := range clauses {
		ok := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if v < len(model) && (l > 0) == model[v] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("solver: clause %d unsatisfied", i)
		}
	}
	return nil
}
