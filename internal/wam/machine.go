package wam

import (
	"fmt"
	"strings"
)

// DB is the clause database, indexed by functor/arity.
type DB struct {
	clauses map[string][]*Clause
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{clauses: map[string][]*Clause{}} }

// Assert appends a clause.
func (db *DB) Assert(cl *Clause) {
	key := indicator(cl.Head)
	db.clauses[key] = append(db.clauses[key], cl)
}

// Consult parses src and asserts every clause.
func (db *DB) Consult(src string) error {
	cls, err := ParseProgram(src)
	if err != nil {
		return err
	}
	for _, cl := range cls {
		db.Assert(cl)
	}
	return nil
}

// Stats counts runtime events of one query.
type Stats struct {
	Calls        int64 // goal invocations
	ChoicePoints int64 // clause alternatives tried
	Backtracks   int64 // trail unwinds after a failed alternative
	MaxTrail     int64 // high-water binding count
}

// Machine executes queries against a database. Output from write/nl is
// captured in Out (the contained stdout of the comparison harness).
type Machine struct {
	DB    *DB
	Out   strings.Builder
	Stats Stats
	// MaxCalls bounds goal invocations (0 = unlimited); exceeding it
	// aborts the query with an error.
	MaxCalls int64

	trail Trail
	err   error
}

// NewMachine returns a machine over db.
func NewMachine(db *DB) *Machine { return &Machine{DB: db} }

// cutSignal is the cut barrier shared by the alternatives of one call.
type cutSignal struct{ cut bool }

// ErrUnknownPredicate reports a call to an undefined predicate.
type ErrUnknownPredicate struct{ Indicator string }

func (e *ErrUnknownPredicate) Error() string {
	return "wam: unknown predicate " + e.Indicator
}

// Solve runs the goal, invoking onSolution for each solution found (with
// bindings still in place — inspect via the query's variable map).
// onSolution returns true to continue searching. Solve returns the number
// of solutions found.
func (m *Machine) Solve(goal *Term, onSolution func() bool) (int, error) {
	found := 0
	m.err = nil
	bar := &cutSignal{}
	m.call(goal, bar, func() bool {
		found++
		return !onSolution() // k returns true to halt
	})
	m.trail.Undo(0)
	return found, m.err
}

// SolveQuery parses and runs a textual query, reporting each solution's
// bindings rendered as strings.
func (m *Machine) SolveQuery(src string, onSolution func(b map[string]string) bool) (int, error) {
	goal, vars, err := ParseQuery(src)
	if err != nil {
		return 0, err
	}
	return m.Solve(goal, func() bool {
		b := make(map[string]string, len(vars))
		for name, v := range vars {
			b[name] = Deref(v).String()
		}
		return onSolution(b)
	})
}

// call attempts goal; k is the success continuation and returns true to
// halt the entire search. call returns true when a halt propagated.
func (m *Machine) call(goal *Term, bar *cutSignal, k func() bool) bool {
	if m.err != nil {
		return true
	}
	m.Stats.Calls++
	if m.MaxCalls > 0 && m.Stats.Calls > m.MaxCalls {
		m.err = fmt.Errorf("wam: call budget %d exhausted", m.MaxCalls)
		return true
	}
	if n := int64(m.trail.Mark()); n > m.Stats.MaxTrail {
		m.Stats.MaxTrail = n
	}
	goal = deref(goal)

	switch goal.Kind {
	case KVar:
		m.err = fmt.Errorf("wam: unbound goal")
		return true
	case KInt:
		m.err = fmt.Errorf("wam: integer is not callable")
		return true
	}

	// Control constructs and builtins.
	switch {
	case goal.Kind == KAtom && goal.Functor == "true":
		return k()
	case goal.Kind == KAtom && (goal.Functor == "fail" || goal.Functor == "false"):
		return false
	case goal.Kind == KAtom && goal.Functor == "!":
		if k() {
			return true
		}
		bar.cut = true
		return false
	case goal.Kind == KAtom && goal.Functor == "nl":
		m.Out.WriteByte('\n')
		return k()
	case goal.Kind == KStruct && goal.Functor == "," && len(goal.Args) == 2:
		return m.call(goal.Args[0], bar, func() bool {
			return m.call(goal.Args[1], bar, k)
		})
	case goal.Kind == KStruct && goal.Functor == ";" && len(goal.Args) == 2:
		if m.call(goal.Args[0], bar, k) {
			return true
		}
		if bar.cut {
			return false
		}
		return m.call(goal.Args[1], bar, k)
	case goal.Kind == KStruct && goal.Functor == "\\+" && len(goal.Args) == 1:
		mark := m.trail.Mark()
		succeeded := false
		sub := &cutSignal{}
		m.call(goal.Args[0], sub, func() bool { succeeded = true; return true })
		m.trail.Undo(mark)
		if m.err != nil {
			return true
		}
		if succeeded {
			return false
		}
		return k()
	case goal.Kind == KStruct && goal.Functor == "call" && len(goal.Args) == 1:
		sub := &cutSignal{}
		return m.call(goal.Args[0], sub, k)
	case goal.Kind == KStruct && goal.Functor == "write" && len(goal.Args) == 1:
		m.Out.WriteString(Deref(goal.Args[0]).String())
		return k()
	case goal.Kind == KStruct && goal.Functor == "=" && len(goal.Args) == 2:
		mark := m.trail.Mark()
		if Unify(goal.Args[0], goal.Args[1], &m.trail) {
			if k() {
				return true
			}
		}
		m.trail.Undo(mark)
		return false
	case goal.Kind == KStruct && goal.Functor == "\\=" && len(goal.Args) == 2:
		mark := m.trail.Mark()
		ok := Unify(goal.Args[0], goal.Args[1], &m.trail)
		m.trail.Undo(mark)
		if ok {
			return false
		}
		return k()
	case goal.Kind == KStruct && goal.Functor == "==" && len(goal.Args) == 2:
		if structEqual(goal.Args[0], goal.Args[1]) {
			return k()
		}
		return false
	case goal.Kind == KStruct && goal.Functor == "is" && len(goal.Args) == 2:
		v, err := m.eval(goal.Args[1])
		if err != nil {
			m.err = err
			return true
		}
		mark := m.trail.Mark()
		if Unify(goal.Args[0], Int(v), &m.trail) {
			if k() {
				return true
			}
		}
		m.trail.Undo(mark)
		return false
	case goal.Kind == KStruct && len(goal.Args) == 2 && isCompareOp(goal.Functor):
		a, err := m.eval(goal.Args[0])
		if err != nil {
			m.err = err
			return true
		}
		b, err := m.eval(goal.Args[1])
		if err != nil {
			m.err = err
			return true
		}
		if compare(goal.Functor, a, b) {
			return k()
		}
		return false
	case goal.Kind == KStruct && goal.Functor == "between" && len(goal.Args) == 3:
		lo, err := m.eval(goal.Args[0])
		if err != nil {
			m.err = err
			return true
		}
		hi, err := m.eval(goal.Args[1])
		if err != nil {
			m.err = err
			return true
		}
		for v := lo; v <= hi; v++ {
			mark := m.trail.Mark()
			if Unify(goal.Args[2], Int(v), &m.trail) {
				if k() {
					return true
				}
			}
			m.trail.Undo(mark)
			m.Stats.Backtracks++
		}
		return false
	}

	// User-defined predicate resolution.
	key := indicator(goal)
	clauses, ok := m.DB.clauses[key]
	if !ok {
		m.err = &ErrUnknownPredicate{Indicator: key}
		return true
	}
	myBar := &cutSignal{}
	for _, cl := range clauses {
		m.Stats.ChoicePoints++
		mark := m.trail.Mark()
		mapping := map[*Term]*Term{}
		head := renameTerm(cl.Head, mapping)
		if Unify(goal, head, &m.trail) {
			body := renameTerm(cl.Body, mapping)
			if m.call(body, myBar, k) {
				return true
			}
		}
		m.trail.Undo(mark)
		m.Stats.Backtracks++
		if myBar.cut {
			break
		}
	}
	return false
}

func isCompareOp(op string) bool {
	switch op {
	case "<", ">", "=<", ">=", "=:=", "=\\=":
		return true
	}
	return false
}

func compare(op string, a, b int64) bool {
	switch op {
	case "<":
		return a < b
	case ">":
		return a > b
	case "=<":
		return a <= b
	case ">=":
		return a >= b
	case "=:=":
		return a == b
	case "=\\=":
		return a != b
	}
	return false
}

// eval computes an arithmetic expression.
func (m *Machine) eval(t *Term) (int64, error) {
	t = deref(t)
	switch t.Kind {
	case KInt:
		return t.Int, nil
	case KVar:
		return 0, fmt.Errorf("wam: unbound variable in arithmetic")
	case KStruct:
		if len(t.Args) == 2 {
			a, err := m.eval(t.Args[0])
			if err != nil {
				return 0, err
			}
			b, err := m.eval(t.Args[1])
			if err != nil {
				return 0, err
			}
			switch t.Functor {
			case "+":
				return a + b, nil
			case "-":
				return a - b, nil
			case "*":
				return a * b, nil
			case "//":
				if b == 0 {
					return 0, fmt.Errorf("wam: division by zero")
				}
				return a / b, nil
			case "mod":
				if b == 0 {
					return 0, fmt.Errorf("wam: mod by zero")
				}
				return ((a % b) + b) % b, nil
			}
		}
		if len(t.Args) == 1 && t.Functor == "abs" {
			a, err := m.eval(t.Args[0])
			if err != nil {
				return 0, err
			}
			if a < 0 {
				return -a, nil
			}
			return a, nil
		}
	}
	return 0, fmt.Errorf("wam: %s is not an arithmetic expression", t)
}

func structEqual(a, b *Term) bool {
	a, b = deref(a), deref(b)
	if a == b {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KAtom:
		return a.Functor == b.Functor
	case KInt:
		return a.Int == b.Int
	case KStruct:
		if a.Functor != b.Functor || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !structEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Prelude is the library of list predicates the workloads use.
const Prelude = `
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).

member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).

length([], 0).
length([_|T], N) :- length(T, N1), N is N1 + 1.

numlist(L, H, [L|T]) :- L =< H, L1 is L + 1, numlist(L1, H, T).
numlist(L, H, []) :- L > H.

reverse(Xs, Ys) :- rev_(Xs, [], Ys).
rev_([], Acc, Acc).
rev_([X|Xs], Acc, Ys) :- rev_(Xs, [X|Acc], Ys).
`

// NewPreludeDB returns a database preloaded with Prelude.
func NewPreludeDB() (*DB, error) {
	db := NewDB()
	if err := db.Consult(Prelude); err != nil {
		return nil, err
	}
	return db, nil
}
