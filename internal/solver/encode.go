package solver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Marshal serializes the solver's persistent state — problem clauses,
// learned clauses, and saved phases — so a solved instance can live inside
// a candidate's simulated memory or file image. This is what lets the
// multi-path incremental solver service of §3.2 park "problem p, solved"
// behind an opaque snapshot reference and later extend it with q.
//
// The byte layout is built for block-level CoW sharing between a parked
// parent state and its extensions (fs.UpdateFile): the most stable bytes
// come first and everything volatile sits at the end.
//
//   - Sections, in order (all words little-endian uint64): problem-clause
//     data, learned-clause data, level-0 trail literals, phases, then a
//     fixed-size footer [nClauses, nLearnts, nFacts, nVars, ok, magic].
//     An extension appends clauses, so the parent's clause bytes are a
//     bytewise prefix of the child's and their shared blocks stay shared.
//   - No section begins with its own count — counts live in the footer —
//     so adding a clause shifts nothing before the learnt section.
//   - A clause is its length followed by its literals (±var) in strictly
//     ascending order: propagation swaps watched literals inside clauses,
//     so without a canonical order two solvers holding the same logical
//     clauses would marshal to different bytes.
//
// The output is sized exactly and allocated once; each clause is sorted
// where it lands in the buffer.
func (s *Solver) Marshal() []byte { return s.MarshalOnto(nil) }

// MarshalOnto is Marshal for a solver built by Load, given the bytes it
// loaded. When loaded is the very slice the last successful Load read (same
// array, same length), its clause section — which the caller must not have
// changed since — is already the state's first clauses in canonical form:
// Load accepts nothing else, and clauses are never deleted or reordered.
// Those bytes stay where they are and only what followed the Load is
// encoded: new problem clauses, learnt clauses, facts, phases and the
// footer. The result goes into loaded's array, over what followed the
// clause section, when the array has room, and otherwise into a new one
// grown from it as append would. Any other slice, nil included, gets the
// full encode into a new buffer and is not written. Either way the bytes
// are exactly Marshal's.
func (s *Solver) MarshalOnto(loaded []byte) []byte {
	s.cancelUntil(0)
	// Every arena word is a header or a literal, one output word each.
	size := 8 * (len(s.arena) + len(s.trail) + s.nVars + footerWords)
	from := 0 // first arena word to encode
	var buf []byte
	if s.loadedFrom != nil && len(loaded) == s.loadedLen && &loaded[0] == s.loadedFrom {
		from = s.loadedWords
		buf = slices.Grow(loaded[:8*from], size-8*from)[:size]
	} else {
		buf = make([]byte, size)
	}
	at := 8 * from
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[at:], v)
		at += 8
	}
	// Problem clauses, then the clauses learned since the solver was made.
	// Every clause before from is a loaded problem clause.
	for _, learnt := range [2]lit{0, 1} {
		if learnt == 1 && s.nLearnts == 0 {
			break
		}
		for c := from; c < len(s.arena); {
			n := int(s.arena[c] >> 1)
			if s.arena[c]&1 == learnt {
				put(uint64(n))
				start := at
				for _, l := range s.arena[c+1 : c+1+n] {
					put(uint64(int64(l.ext())))
				}
				sortWords(buf[start:at])
			}
			c += 1 + n
		}
	}
	// Level-0 facts (the trail bottom) and phases.
	for _, l := range s.trail {
		put(uint64(int64(l.ext())))
	}
	for v := 1; v <= s.nVars; v++ {
		put(uint64(int64(s.phase[v])))
	}
	// Footer.
	put(uint64(s.nClauses))
	put(uint64(s.nLearnts))
	put(uint64(len(s.trail)))
	put(uint64(s.nVars))
	ok := uint64(0)
	if s.ok {
		ok = 1
	}
	put(ok)
	put(solverMagic)
	return buf
}

// sortWords sorts the little-endian int64 words of b in place. A Shell sort
// with Knuth's gaps: for the three-literal clauses that dominate it is a
// plain insertion sort, for a long learned clause it stays sub-quadratic,
// and it needs no scratch.
func sortWords(b []byte) {
	le := binary.LittleEndian
	n := len(b) / 8
	h := 1
	for h < n/3 {
		h = 3*h + 1
	}
	for ; h >= 1; h /= 3 {
		for i := h; i < n; i++ {
			v := le.Uint64(b[8*i:])
			j := i
			for ; j >= h && int64(le.Uint64(b[8*(j-h):])) > int64(v); j -= h {
				le.PutUint64(b[8*j:], le.Uint64(b[8*(j-h):]))
			}
			le.PutUint64(b[8*j:], v)
		}
	}
}

// ExtendFromPhases answers an extend of a parked state by clauses with
// no solver, when the state's saved phases satisfy the extended problem:
// it returns what Load, AddClause for each clause, Solve, Model and
// MarshalOnto(state) would, the child built in state's array if it has
// room, or ok false with state untouched. It answers only when the footer
// is valid with the ok flag 1 and no level-0 facts, and every clause —
// those of clauses sorted, a tautology dropped, and every loaded one — is
// canonical as Load demands, names only the state's variables, and has a
// literal true under the phases (anything but -1 reads as true, as in a
// decision). Checking the loaded clauses, Solve's own phase check, is
// what keeps it from trusting that an ok state was marshalled after Sat.
//
// s lends only a memo, as to Load: its last answer's clause section and
// phases. The whole clauses of the prefix that state's clause section
// shares with it are canonical, as Load's memo argues, if the memo has no
// more variables; they hold under equal phase bytes, and otherwise only
// their literals' phases are read, up to a true one.
func (s *Solver) ExtendFromPhases(state []byte, clauses [][]int) (child []byte, model []bool, ok bool) {
	f, err := readFooter(state)
	if err != nil || f.ok != 1 || f.facts != 0 {
		return nil, nil, false
	}
	le := binary.LittleEndian
	cw, nv := f.clauseWords, int(f.vars)
	words := cw + nv
	phases := state[8*cw : 8*words]
	// The new clauses first, staged in canonical form apart from state.
	var small [512]byte
	add, k := small[:0], uint64(0)
	for _, cl := range clauses {
		start := len(add)
		add = le.AppendUint64(add, 0)
		for _, e := range cl {
			if v := max(e, -e); v <= 0 || v > nv { // v < 0: -e overflowed
				return nil, nil, false
			}
			add = le.AppendUint64(add, uint64(int64(e)))
		}
		lits := add[start+8:]
		sortWords(lits)
		if namesTwice(lits) { // x ∨ ¬x (or x ∨ x ∨ ¬x): AddClause drops it
			add = add[:start]
			continue
		}
		le.PutUint64(add[start:], uint64(len(lits)/8))
		k++
	}
	if !phaseClauses(add, k, phases) {
		return nil, nil, false
	}
	// Then the loaded clauses, which are many more.
	at, n, same := 0, f.clauses+f.learnts, 0
	if len(s.heldPhases) <= len(phases) {
		same = 8 * sharedWords(s.heldClauses, state[:8*cw])
	}
	samePhases := bytes.Equal(phases, s.heldPhases)
	for ; n > 0 && at+8 <= same; n-- {
		// A length word inside the memo's clauses is one it checked.
		end := at + 8 + 8*int(le.Uint64(state[at:]))
		if end > same {
			break
		}
		if !samePhases && !phaseHolds(state[at+8:end], phases) {
			return nil, nil, false
		}
		at = end
	}
	if !phaseClauses(state[at:8*cw], n, phases) {
		return nil, nil, false
	}

	child = slices.Grow(state[:8*words], len(add)+8*footerWords)[:len(state)+len(add)]
	moved := child[8*cw+len(add) : 8*words+len(add)]
	copy(moved, child[8*cw:8*words])
	copy(child[8*cw:], add)
	model = make([]bool, nv+1)
	for v := 1; v <= nv; v++ {
		p := moved[8*(v-1):]
		model[v] = int8(p[0]) != -1
		le.PutUint64(p, ^uint64(0)) // -1
		if model[v] {
			le.PutUint64(p, 1)
		}
	}
	tail := child[8*words+len(add):]
	for i, w := range [footerWords]uint64{f.clauses + f.learnts + k, 0, 0, f.vars, 1, solverMagic} {
		le.PutUint64(tail[8*i:], w)
	}
	s.heldClauses = append(s.heldClauses[:same], child[same:8*cw+len(add)]...)
	s.heldPhases = append(s.heldPhases[:0], moved...)
	return child, model, true
}

// phaseClauses reports that body is n clauses Load accepts — a length
// word of at least 2, then strictly ascending literals naming variables
// 1..len(phases)/8, none twice — each with a literal true under phases.
//
// hot_path: one read-only pass over body, no allocation.
func phaseClauses(body []byte, n uint64, phases []byte) bool {
	le := binary.LittleEndian
	nv := int64(len(phases) / 8)
	for ; n > 0 && len(body) >= 8; n-- {
		ln := le.Uint64(body)
		if ln < 2 || ln > uint64(nv) || ln > uint64(len(body)/8-1) {
			return false
		}
		lits := body[8 : 8+8*ln]
		body = body[8+8*ln:]
		prev := int64(math.MinInt64)
		for j := 0; j < len(lits); j += 8 {
			l := int64(le.Uint64(lits[j:]))
			if l == 0 || l > nv || l < -nv || l <= prev {
				return false
			}
			prev = l
		}
		if namesTwice(lits) || !phaseHolds(lits, phases) {
			return false
		}
	}
	return n == 0 && len(body) == 0
}

// phaseHolds reports that a literal of lits, all in range, holds.
//
// hot_path: a read-only pass over lits up to the first true literal.
func phaseHolds(lits, phases []byte) bool {
	for ; len(lits) >= 8; lits = lits[8:] {
		l := int64(binary.LittleEndian.Uint64(lits))
		neg := uint64(l) >> 63
		v := uint64((l ^ -int64(neg)) + int64(neg)) // |l|
		if (uint64(phases[8*(v-1)])+1)>>8 == neg {
			return true
		}
	}
	return false
}

// namesTwice reports that the ascending literals of lits name a
// variable both ways: one merge of the negative run, read backwards, with
// the positive one.
//
// hot_path: one read-only merge over lits.
func namesTwice(lits []byte) bool {
	le := binary.LittleEndian
	p := 0
	for p < len(lits) && int64(le.Uint64(lits[p:])) < 0 {
		p += 8
	}
	for n := p - 8; n >= 0 && p < len(lits); {
		switch a, b := -int64(le.Uint64(lits[n:])), int64(le.Uint64(lits[p:])); {
		case a == b:
			return true
		case a < b:
			n -= 8
		default:
			p += 8
		}
	}
	return false
}

const solverMagic = 0x53415453_4e415053 // "SNAPSATS"

// footerWords is the fixed trailer size of the Marshal format.
const footerWords = 6

// Unmarshal reconstructs a solver from Marshal output in one pass over the
// bytes: the clause section becomes the clause arena word for word, the
// watch lists are counted, cut from one array and filled, the per-variable
// arrays are made once at the footer's nVars. Nothing is re-added through
// AddClause, so the cost does not depend on what AddClause would do with
// each clause — and neither does the result:
//
//   - Each clause is put back into the internal literal order AddClause
//     stores (by variable, +v before ¬v), by one merge of the two runs its
//     canonical order already holds, not by a sort. That order decides
//     which two literals are watched, the watch lists follow clause order,
//     and the search follows the watch lists: a reloaded solver decides,
//     learns and answers exactly as one that was handed the same clauses
//     directly.
//   - Learned clauses come back as problem clauses: they are consequences
//     of the problem, so nothing is lost, and NumLearnts restarts at zero.
//   - Level-0 facts are asserted and propagated one by one, in trail order,
//     after every clause is watched.
//
// Only what Marshal writes is accepted. A state whose footer counts do not
// account for every body word, that claims more than VarLimit variables,
// that names a literal 0 or a variable beyond nVars, or that holds a clause
// Marshal cannot produce — fewer than two literals, literals not strictly
// ascending, a variable twice (x ∨ ¬x included) — is rejected as corrupt.
// Such a clause is not repaired: a state file is written by this package
// alone, so a clause outside the canonical form means the bytes are not a
// state, and a solver quietly built from them could answer for a different
// problem.
//
// The new solver keeps no copy of what it decoded: that copy pays only
// when the same solver Loads a related state next (see Load).
func Unmarshal(data []byte) (*Solver, error) {
	// new, not &Solver{}: it keeps Unmarshal within the inlining budget, so
	// a caller that keeps the solver local keeps it on its stack.
	s := new(Solver)
	if err := s.load(data, false); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns s to the state of New(0) but keeps its arrays, so the next
// problem it holds allocates only what outgrows them. It also keeps the
// last Load's decoded clauses: they are not solver state, only what lets
// the next Load skip the clauses it shares with them.
func (s *Solver) Reset() {
	*s = Solver{
		ok: true, varInc: 1,
		arena: s.arena[:0], watches: s.watches[:0], watchMem: s.watchMem, watchCount: s.watchCount[:0],
		assign: s.assign[:0], level: s.level[:0], reason: s.reason[:0], phase: s.phase[:0],
		activity: s.activity[:0], heap: s.heap[:0], heapPos: s.heapPos[:0],
		trail: s.trail[:0], trailLim: s.trailLim[:0], seen: s.seen[:0], scratch: s.scratch[:0],
		memoRaw: s.memoRaw, memoArena: s.memoArena, memoMaxVar: s.memoMaxVar,
		heldClauses: s.heldClauses, heldPhases: s.heldPhases,
	}
}

// Load is Unmarshal into a solver that has been used before: s is Reset and
// rebuilt from data inside the arrays it already owns. The result behaves
// exactly as Unmarshal's. After an error s holds no usable problem. After
// success s remembers which slice it read, for MarshalOnto.
//
// Load also keeps the clause section it decoded and the arena words it
// decoded them to. The next Load decodes only from the first clause whose
// bytes differ from those; the clauses before it are copied from the kept
// words. That is what a sibling of the last state costs: the clauses its
// parent added, not the whole base. The copy is exact. A clause's decode
// depends on its bytes, which are compared; on where it starts, which is
// the same because everything before it is the same; on the words left
// after it, which it fits because it lies inside the compared prefix; and
// on nVars, through the literal range check and the length check. The
// copy is made only when the nVars the kept words were decoded under,
// which bounds every variable they name, is at most the new one. That
// passes both checks: a clause names each variable once, so it has no more
// literals than its largest variable. The copy also stops at the footer's
// clause count. So each copied clause decodes, and raises no error,
// exactly as a full decode would make it, and an error is raised by the
// same clause, with the same text.
func (s *Solver) Load(data []byte) error { return s.load(data, true) }

// load is Load; keep says whether to keep the decoded clauses for the next
// one.
func (s *Solver) load(data []byte, keep bool) error {
	s.Reset()
	f, err := readFooter(data)
	if err != nil {
		return err
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	nClauses, nLearnts, nFacts, nv, clauseWords := f.clauses, f.learnts, f.facts, f.vars, f.clauseWords

	s.grow(int(nv))
	s.nClauses = int(nClauses + nLearnts)
	// The arena is the clause section — a length word becomes a header, a
	// literal word a lit — with room for the clauses an extension adds.
	if cap(s.arena) < clauseWords {
		s.arena = make([]lit, clauseWords, clauseWords+clauseWords/8+64)
	}
	s.arena = s.arena[:clauseWords]
	s.watchCount = append(s.watchCount, make([]int32, 2*nv+2)...)
	counts := s.watchCount
	// A clause names each variable at most once, so it fits nv literals.
	s.scratch = slices.Grow(s.scratch[:0], int(nv))
	// Copy the whole clauses inside the prefix this clause section shares
	// with the last decoded one, and decode from the first clause after.
	at, i := 0, 0
	if s.memoMaxVar <= int(nv) {
		same := sharedWords(s.memoRaw, data[:8*clauseWords])
		for ; i < s.nClauses && at < same; i++ {
			n := int(s.memoArena[at] >> 1)
			if at+1+n > same {
				break
			}
			counts[s.memoArena[at+1].neg()]++
			counts[s.memoArena[at+2].neg()]++
			at += 1 + n
		}
		copy(s.arena, s.memoArena[:at])
	}
	from := at
	for ; i < s.nClauses; i++ {
		ln := word(at) // at worst a footer word: at never passes clauseWords
		if rest := clauseWords - at - 1; ln < 2 || rest < 2 || ln > uint64(rest) {
			return fmt.Errorf("solver: clause %d has length %d with %d words left", i, ln, rest)
		}
		if ln > nv {
			return fmt.Errorf("solver: clause %d has %d literals over %d variables", i, ln, nv)
		}
		s.arena[at] = lit(ln << 1)
		cl := s.arena[at+1 : at+1+int(ln)]
		// Strictly ascending, the clause is its negative literals by falling
		// variable, then its positive ones by rising variable.
		in := s.scratch[:len(cl)]
		prev, neg := int64(math.MinInt64), 0
		for j := range in {
			l := int64(word(at + 1 + j))
			if l == 0 || l > int64(nv) || l < -int64(nv) {
				return fmt.Errorf("solver: literal %d out of range for %d vars", l, nv)
			}
			if l <= prev {
				return fmt.Errorf("solver: clause %d is not strictly ascending", i)
			}
			prev = l
			if l < 0 {
				neg = j + 1
			}
			in[j] = toLit(int(l))
		}
		// Merge the two runs, the negative one read backwards, into the
		// internal order (by variable, +v before ¬v). Each run names a
		// variable at most once, so the merge alone meets a repeated one.
		n, p := neg-1, neg
		for j := range cl {
			switch {
			case n < 0 || (p < len(in) && in[p] < in[n].neg()):
				cl[j] = in[p]
				p++
			case p == len(in) || in[n] < in[p]:
				cl[j] = in[n]
				n--
			default:
				return fmt.Errorf("solver: clause %d names variable %d twice", i, in[p].variable())
			}
		}
		counts[cl[0].neg()]++
		counts[cl[1].neg()]++
		at += 1 + len(cl)
	}
	// The footer counts must account for every body word: trailing data
	// means the counts are inconsistent with the sections, and a solver
	// silently missing constraints could answer sat for an unsat problem.
	if at != clauseWords {
		return fmt.Errorf("solver: %d state bytes unaccounted for by footer counts", 8*(clauseWords-at))
	}
	if keep {
		// Before attach and the facts: propagation swaps watched literals.
		// nv bounds the clauses just decoded and, by the check above, the
		// ones copied.
		s.memoRaw = append(s.memoRaw[:8*from], data[8*from:8*clauseWords]...)
		s.memoArena = append(s.memoArena[:from], s.arena[from:clauseWords]...)
		s.memoMaxVar = int(nv)
	}

	// Watch lists: one array (kept across Loads) cut to each literal's count
	// plus slack for the watches propagation moves in, filled in clause
	// order.
	total := 0
	for _, n := range counts {
		total += watchCap(n)
	}
	if cap(s.watchMem) < total {
		s.watchMem = make([]watch, total)
	}
	backing := s.watchMem[:total]
	for p := range s.watches { // empty when nv is 0
		n := watchCap(counts[p])
		s.watches[p] = backing[:0:n]
		backing = backing[n:]
	}
	for c := 0; c < clauseWords; {
		cl := s.lits(cref(c))
		s.attach(cref(c), cl)
		c += 1 + len(cl)
	}

	for i := 0; i < int(nFacts); i++ {
		l := int64(word(clauseWords + i))
		if l == 0 || l > int64(nv) || l < -int64(nv) {
			return fmt.Errorf("solver: fact literal %d out of range for %d vars", l, nv)
		}
		if !s.ok {
			continue
		}
		switch p := toLit(int(l)); s.valueLit(p) {
		case -1:
			s.ok = false
		case 0:
			s.enqueue(p, crefNone)
			if s.propagate() != crefNone {
				s.ok = false
			}
		}
	}
	for v := 1; v <= int(nv); v++ {
		s.phase[v] = int8(int64(word(clauseWords + int(nFacts) + v - 1)))
	}
	if f.ok == 0 {
		s.ok = false
	}
	s.loadedFrom, s.loadedLen, s.loadedWords = &data[0], len(data), clauseWords
	return nil
}

// footer is a state's trailer and the clause section's length in words.
type footer struct {
	clauses, learnts, facts, vars, ok uint64
	clauseWords                       int
}

// readFooter reads data's footer and checks it against the body before
// any count sizes anything: one word per phase and per fact, at least
// three per clause, and clause offsets must fit a cref.
func readFooter(data []byte) (footer, error) {
	if len(data) < footerWords*8 || len(data)%8 != 0 {
		return footer{}, fmt.Errorf("solver: truncated state (%d bytes)", len(data))
	}
	words := len(data)/8 - footerWords
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*(words+i):]) }
	f := footer{clauses: word(0), learnts: word(1), facts: word(2), vars: word(3), ok: word(4)}
	if word(5) != solverMagic {
		return footer{}, fmt.Errorf("solver: bad state magic")
	}
	if f.vars > VarLimit {
		return footer{}, fmt.Errorf("solver: state claims %d variables, beyond VarLimit (%d)", f.vars, VarLimit)
	}
	w, nv := uint64(words), f.vars
	if nv > w || f.facts > w-nv || f.clauses > w || f.learnts > w || 3*(f.clauses+f.learnts) > w-nv-f.facts || w > math.MaxInt32/2 {
		return footer{}, fmt.Errorf("solver: footer counts exceed state size")
	}
	f.clauseWords = words - int(nv) - int(f.facts)
	return f, nil
}

// watchCap is the capacity a loaded watch list of n entries starts with.
func watchCap(n int32) int { return int(n) + int(n)/2 + 4 }

// sharedWords is the number of leading 8-byte words a and b have in common,
// compared 4 KiB at a time and then word by word.
func sharedWords(a, b []byte) int {
	n := min(len(a), len(b)) &^ 7
	i := 0
	for i+4096 <= n && bytes.Equal(a[i:i+4096], b[i:i+4096]) {
		i += 4096
	}
	for i < n && binary.LittleEndian.Uint64(a[i:]) == binary.LittleEndian.Uint64(b[i:]) {
		i += 8
	}
	return i / 8
}
