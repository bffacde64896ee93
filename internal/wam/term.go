// Package wam implements the Prolog comparator of the paper's §5 (the XSB
// baseline): a structure-sharing Prolog interpreter with unification,
// a binding trail, and choice-point backtracking — the WAM's runtime model
// interpreted over the source AST rather than compiled instructions. The
// paper's sys_guess corresponds to a WAM choice point; this package is the
// "language runtime does the backtracking" design that system-level
// snapshots are measured against.
package wam

import (
	"fmt"
	"strings"
)

// Kind tags a Term.
type Kind uint8

// Term kinds.
const (
	// KVar is a logic variable (possibly bound through Ref).
	KVar Kind = iota
	// KAtom is a symbolic constant.
	KAtom
	// KInt is a 64-bit integer.
	KInt
	// KStruct is a compound term: Functor(Args...).
	KStruct
)

// Term is a Prolog term. Variables bind through Ref (structure sharing);
// deref follows the chain. Atoms and struct shells are immutable.
type Term struct {
	Kind    Kind
	Functor string // atom name / struct functor / variable name
	Int     int64
	Args    []*Term
	Ref     *Term // variable binding; nil when unbound
}

// Commonly used atoms.
var (
	atomNil  = Atom("[]")
	atomTrue = Atom("true")
)

// Var returns a fresh unbound variable named name (for printing only).
func Var(name string) *Term { return &Term{Kind: KVar, Functor: name} }

// Atom returns an atom term.
func Atom(name string) *Term { return &Term{Kind: KAtom, Functor: name} }

// Int returns an integer term.
func Int(v int64) *Term { return &Term{Kind: KInt, Int: v} }

// Struct returns a compound term.
func Struct(functor string, args ...*Term) *Term {
	return &Term{Kind: KStruct, Functor: functor, Args: args}
}

// Cons returns the list cell '.'(head, tail).
func Cons(head, tail *Term) *Term { return Struct(".", head, tail) }

// List builds a proper list from elements.
func List(elems ...*Term) *Term {
	out := atomNil
	for i := len(elems) - 1; i >= 0; i-- {
		out = Cons(elems[i], out)
	}
	return out
}

// deref follows variable bindings to the representative term.
func deref(t *Term) *Term {
	for t.Kind == KVar && t.Ref != nil {
		t = t.Ref
	}
	return t
}

// Deref exposes deref for callers inspecting solutions.
func Deref(t *Term) *Term { return deref(t) }

// indicator returns the functor/arity key used by the clause index.
func indicator(t *Term) string {
	t = deref(t)
	switch t.Kind {
	case KAtom:
		return t.Functor + "/0"
	case KStruct:
		return fmt.Sprintf("%s/%d", t.Functor, len(t.Args))
	default:
		return ""
	}
}

// String renders the term in canonical Prolog syntax, including proper
// list notation.
func (t *Term) String() string {
	var sb strings.Builder
	writeTerm(&sb, t, 0)
	return sb.String()
}

func writeTerm(sb *strings.Builder, t *Term, depth int) {
	if depth > 64 {
		sb.WriteString("...")
		return
	}
	t = deref(t)
	switch t.Kind {
	case KVar:
		if t.Functor != "" {
			sb.WriteString("_" + t.Functor)
		} else {
			fmt.Fprintf(sb, "_G%p", t)
		}
	case KAtom:
		sb.WriteString(t.Functor)
	case KInt:
		fmt.Fprintf(sb, "%d", t.Int)
	case KStruct:
		if t.Functor == "." && len(t.Args) == 2 {
			writeList(sb, t, depth)
			return
		}
		sb.WriteString(t.Functor)
		sb.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeTerm(sb, a, depth+1)
		}
		sb.WriteByte(')')
	}
}

func writeList(sb *strings.Builder, t *Term, depth int) {
	sb.WriteByte('[')
	first := true
	for {
		t = deref(t)
		if t.Kind == KStruct && t.Functor == "." && len(t.Args) == 2 {
			if !first {
				sb.WriteByte(',')
			}
			writeTerm(sb, t.Args[0], depth+1)
			first = false
			t = t.Args[1]
			continue
		}
		if t.Kind == KAtom && t.Functor == "[]" {
			break
		}
		sb.WriteByte('|')
		writeTerm(sb, t, depth+1)
		break
	}
	sb.WriteByte(']')
}

// Trail records variable bindings for backtracking, exactly the WAM trail.
type Trail struct {
	bound []*Term
}

// Mark returns the current trail position.
func (tr *Trail) Mark() int { return len(tr.bound) }

// Undo unbinds every variable bound after mark.
func (tr *Trail) Undo(mark int) {
	for i := len(tr.bound) - 1; i >= mark; i-- {
		tr.bound[i].Ref = nil
	}
	tr.bound = tr.bound[:mark]
}

// bind records v := t on the trail.
func (tr *Trail) bind(v, t *Term) {
	v.Ref = t
	tr.bound = append(tr.bound, v)
}

// Unify unifies a and b, trailing bindings; it returns false (with no
// cleanup — the caller unwinds via the trail mark) on mismatch.
func Unify(a, b *Term, tr *Trail) bool {
	a, b = deref(a), deref(b)
	if a == b {
		return true
	}
	if a.Kind == KVar {
		tr.bind(a, b)
		return true
	}
	if b.Kind == KVar {
		tr.bind(b, a)
		return true
	}
	switch {
	case a.Kind == KAtom && b.Kind == KAtom:
		return a.Functor == b.Functor
	case a.Kind == KInt && b.Kind == KInt:
		return a.Int == b.Int
	case a.Kind == KStruct && b.Kind == KStruct:
		if a.Functor != b.Functor || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !Unify(a.Args[i], b.Args[i], tr) {
				return false
			}
		}
		return true
	}
	return false
}

// renameTerm copies t with fresh variables (clause renaming).
func renameTerm(t *Term, mapping map[*Term]*Term) *Term {
	t = deref(t)
	switch t.Kind {
	case KVar:
		if nv, ok := mapping[t]; ok {
			return nv
		}
		nv := Var(t.Functor)
		mapping[t] = nv
		return nv
	case KStruct:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = renameTerm(a, mapping)
		}
		return &Term{Kind: KStruct, Functor: t.Functor, Args: args}
	default:
		return t
	}
}
