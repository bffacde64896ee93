package wam

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// The parser accepts the Prolog subset the baseline programs need:
// clauses (Head :- Body. / Head.), conjunction ',', disjunction ';',
// negation '\+', lists with '|', integers (with unary minus), atoms,
// variables, compound terms, and the infix operators
// is  =  \=  ==  <  >  =<  >=  =:=  =\=  with arithmetic + - * // mod.

type tokKind uint8

const (
	tEOF tokKind = iota
	tAtom
	tVar
	tInt
	tPunct // ( ) [ ] , | . and operators
)

type token struct {
	kind tokKind
	text string
	ival int64
	pos  int
	end  int // byte offset just past the token (call-syntax adjacency)
}

func isSymbolChar(r byte) bool {
	return strings.IndexByte("+-*/\\^<>=~:.?@#&", r) >= 0
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '%': // line comment
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')' || c == '[' || c == ']' || c == ',' || c == '|' || c == '!' || c == ';':
			toks = append(toks, token{kind: tPunct, text: string(c), pos: i})
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			v, err := strconv.ParseInt(src[i:j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("wam: bad integer at %d", i)
			}
			toks = append(toks, token{kind: tInt, ival: v, pos: i})
			i = j
		case c == '_' || unicode.IsUpper(rune(c)):
			j := i
			for j < len(src) && (src[j] == '_' || isAlnum(src[j])) {
				j++
			}
			toks = append(toks, token{kind: tVar, text: src[i:j], pos: i})
			i = j
		case unicode.IsLower(rune(c)):
			j := i
			for j < len(src) && (src[j] == '_' || isAlnum(src[j])) {
				j++
			}
			toks = append(toks, token{kind: tAtom, text: src[i:j], pos: i, end: j})
			i = j
		case c == '\'': // quoted atom
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("wam: unterminated quoted atom at %d", i)
			}
			toks = append(toks, token{kind: tAtom, text: src[i+1 : j], pos: i, end: j + 1})
			i = j + 1
		case isSymbolChar(c):
			j := i
			for j < len(src) && isSymbolChar(src[j]) {
				j++
			}
			text := src[i:j]
			// A '.' that ends a clause: symbol run of exactly "." followed
			// by whitespace/EOF.
			toks = append(toks, token{kind: tPunct, text: text, pos: i})
			i = j
		default:
			return nil, fmt.Errorf("wam: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tEOF, pos: len(src)})
	return toks, nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

type parser struct {
	toks []token
	i    int
	vars map[string]*Term // per-clause variable scope
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) expect(text string) error {
	t := p.next()
	if t.kind != tPunct || t.text != text {
		return fmt.Errorf("wam: expected %q at %d, got %q", text, t.pos, t.text)
	}
	return nil
}

// precedence levels (looser binds first): ;  ,  comparison  +-  */
const (
	precClause = 1200 // :-
	precSemi   = 1100
	precComma  = 1000
	precCmp    = 700
	precAdd    = 500
	precMul    = 400
)

var infixOps = map[string]int{
	":-": precClause,
	";":  precSemi,
	",":  precComma,
	"is": precCmp, "=": precCmp, "\\=": precCmp, "==": precCmp,
	"<": precCmp, ">": precCmp, "=<": precCmp, ">=": precCmp,
	"=:=": precCmp, "=\\=": precCmp,
	"+": precAdd, "-": precAdd,
	"*": precMul, "//": precMul, "mod": precMul,
}

// parseTerm parses a term with operators of precedence <= maxPrec.
func (p *parser) parseTerm(maxPrec int) (*Term, error) {
	left, err := p.parsePrimary(maxPrec)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var opText string
		switch t.kind {
		case tPunct:
			opText = t.text
		case tAtom:
			opText = t.text // 'is', 'mod'
		default:
			return left, nil
		}
		prec, ok := infixOps[opText]
		if !ok || prec > maxPrec || opText == "." {
			return left, nil
		}
		p.next()
		// Right operand binds tighter (xfx/xfy approximation: use prec-1
		// for left-assoc arithmetic, prec for , and ;).
		sub := prec - 1
		if opText == "," || opText == ";" || opText == ":-" {
			sub = prec
		}
		right, err := p.parseTerm(sub)
		if err != nil {
			return nil, err
		}
		left = Struct(opText, left, right)
	}
}

func (p *parser) parsePrimary(maxPrec int) (*Term, error) {
	t := p.next()
	switch t.kind {
	case tInt:
		return Int(t.ival), nil
	case tVar:
		if t.text == "_" {
			return Var("_"), nil // each _ is fresh
		}
		if v, ok := p.vars[t.text]; ok {
			return v, nil
		}
		v := Var(t.text)
		p.vars[t.text] = v
		return v, nil
	case tAtom:
		name := t.text
		if p.peek().kind == tPunct && p.peek().text == "(" && p.peek().pos == t.end {
			p.next() // consume (
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return Struct(name, args...), nil
		}
		return Atom(name), nil
	case tPunct:
		switch t.text {
		case "(":
			inner, err := p.parseTerm(precClause)
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return inner, nil
		case "[":
			return p.parseList()
		case "-": // unary minus on integers
			n := p.peek()
			if n.kind == tInt {
				p.next()
				return Int(-n.ival), nil
			}
			operand, err := p.parseTerm(precMul)
			if err != nil {
				return nil, err
			}
			return Struct("-", Int(0), operand), nil
		case "\\+":
			operand, err := p.parseTerm(precComma - 1)
			if err != nil {
				return nil, err
			}
			return Struct("\\+", operand), nil
		case "!":
			return Atom("!"), nil
		}
	}
	return nil, fmt.Errorf("wam: unexpected token %q at %d", t.text, t.pos)
}

func (p *parser) parseArgs() ([]*Term, error) {
	var args []*Term
	for {
		a, err := p.parseTerm(precComma - 1)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		t := p.next()
		if t.kind == tPunct && t.text == "," {
			continue
		}
		if t.kind == tPunct && t.text == ")" {
			return args, nil
		}
		return nil, fmt.Errorf("wam: expected , or ) at %d", t.pos)
	}
}

func (p *parser) parseList() (*Term, error) {
	if p.peek().kind == tPunct && p.peek().text == "]" {
		p.next()
		return atomNil, nil
	}
	var elems []*Term
	for {
		e, err := p.parseTerm(precComma - 1)
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		t := p.next()
		if t.kind != tPunct {
			return nil, fmt.Errorf("wam: bad list at %d", t.pos)
		}
		switch t.text {
		case ",":
			continue
		case "|":
			tail, err := p.parseTerm(precComma - 1)
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			out := tail
			for i := len(elems) - 1; i >= 0; i-- {
				out = Cons(elems[i], out)
			}
			return out, nil
		case "]":
			return List(elems...), nil
		default:
			return nil, fmt.Errorf("wam: bad list separator %q at %d", t.text, t.pos)
		}
	}
}

// Clause is one database entry Head :- Body (Body == true for facts).
type Clause struct {
	Head *Term
	Body *Term
}

// ParseProgram parses a series of clauses terminated by '.'.
func ParseProgram(src string) ([]*Clause, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []*Clause
	for p.peek().kind != tEOF {
		p.vars = map[string]*Term{}
		t, err := p.parseTerm(precClause)
		if err != nil {
			return nil, err
		}
		if err := p.expect("."); err != nil {
			return nil, err
		}
		cl := &Clause{Head: t, Body: atomTrue}
		if t.Kind == KStruct && t.Functor == ":-" && len(t.Args) == 2 {
			cl.Head, cl.Body = t.Args[0], t.Args[1]
		}
		if indicator(cl.Head) == "" {
			return nil, fmt.Errorf("wam: clause head %s is not callable", cl.Head)
		}
		out = append(out, cl)
	}
	return out, nil
}

// ParseQuery parses a single goal term (no trailing dot required).
func ParseQuery(src string) (*Term, map[string]*Term, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks, vars: map[string]*Term{}}
	t, err := p.parseTerm(precClause)
	if err != nil {
		return nil, nil, err
	}
	if p.peek().kind == tPunct && p.peek().text == "." {
		p.next()
	}
	if p.peek().kind != tEOF {
		return nil, nil, fmt.Errorf("wam: trailing tokens in query at %d", p.peek().pos)
	}
	return t, p.vars, nil
}
