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
	if len(data) < footerWords*8 || len(data)%8 != 0 {
		return fmt.Errorf("solver: truncated state (%d bytes)", len(data))
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	words := len(data)/8 - footerWords
	nClauses, nLearnts, nFacts := word(words), word(words+1), word(words+2)
	nv, okFlag, magic := word(words+3), word(words+4), word(words+5)
	if magic != solverMagic {
		return fmt.Errorf("solver: bad state magic")
	}
	if nv > VarLimit {
		return fmt.Errorf("solver: state claims %d variables, beyond VarLimit (%d)", nv, VarLimit)
	}
	// Every count must fit the body it describes before it sizes anything:
	// one word per phase and per fact, at least three per clause, and
	// clause offsets must fit a cref.
	w := uint64(words)
	if nv > w || nFacts > w-nv || nClauses > w || nLearnts > w || 3*(nClauses+nLearnts) > w-nv-nFacts || w > math.MaxInt32/2 {
		return fmt.Errorf("solver: footer counts exceed state size")
	}
	clauseWords := words - int(nv) - int(nFacts)

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
	if okFlag == 0 {
		s.ok = false
	}
	s.loadedFrom, s.loadedLen, s.loadedWords = &data[0], len(data), clauseWords
	return nil
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
