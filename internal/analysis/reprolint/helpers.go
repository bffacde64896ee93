package reprolint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// ExprString renders an expression compactly — the syntactic identity
// used to match a lock's base expression against a guarded access's base
// (`sh.mu.Lock()` guards `sh.entries` because both bases print as "sh").
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// FuncScope is one analyzable function body: a declaration or a literal.
type FuncScope struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
}

// FuncScopes returns every function body in the file: declarations and
// (recursively) literals, each exactly once.
func FuncScopes(file *ast.File) []FuncScope {
	var out []FuncScope
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, FuncScope{Decl: fd, Body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, FuncScope{Lit: lit, Body: lit.Body})
			}
			return true
		})
	}
	// Literals outside any function declaration (package-level var
	// initializers).
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		ast.Inspect(gd, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, FuncScope{Lit: lit, Body: lit.Body})
			}
			return true
		})
	}
	return out
}

// InspectShallow walks the statement tree rooted at n without descending
// into nested function literals (whose statements belong to a different
// scope).
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// FuncDeclMap indexes the package's function declarations by their type
// object, so analyzers can resolve a call to the callee's annotations.
func FuncDeclMap(pass *Pass) map[*types.Func]*ast.FuncDecl {
	m := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				m[obj] = fd
			}
		}
	}
	return m
}

// CalleeFunc resolves a call expression to its *types.Func (method or
// function), or nil for indirect/builtin calls.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// ErrorResultIndex returns the index of the trailing error result of
// sig, or -1.
func ErrorResultIndex(sig *types.Signature) int {
	res := sig.Results()
	if res.Len() == 0 {
		return -1
	}
	if IsErrorType(res.At(res.Len() - 1).Type()) {
		return res.Len() - 1
	}
	return -1
}

// IsNilIdent reports whether e is the predeclared nil.
func IsNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// SuccessReturn classifies ret against the enclosing function's
// signature: true when the function has no error result, or the error
// result position holds literal nil. A nil ret (the implicit return at
// the end of a body) is always a success. Naked returns of a named error
// result are treated as failures only if... they are not: named results
// are not used in this codebase's hot paths, and treating them as
// successes keeps the checks strict.
func SuccessReturn(ret *ast.ReturnStmt, sig *types.Signature) bool {
	if ret == nil {
		return true
	}
	i := ErrorResultIndex(sig)
	if i < 0 {
		return true
	}
	if len(ret.Results) <= i {
		return true // naked return: strict
	}
	return IsNilIdent(ret.Results[i])
}

// ScopeSignature returns the types.Signature of a scope.
func ScopeSignature(info *types.Info, fs FuncScope) *types.Signature {
	if fs.Decl != nil {
		if obj, ok := info.Defs[fs.Decl.Name].(*types.Func); ok {
			return obj.Signature()
		}
		return nil
	}
	if tv, ok := info.Types[fs.Lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// ErrGuardedNodes returns the set of nodes that execute only when errObj
// is known non-nil: the then-branch of `if err != nil` and the
// else-branch of `if err == nil`. Flow checks exempt returns inside them
// — when the paired error of an acquisition is non-nil, the acquired
// value does not exist.
func ErrGuardedNodes(body ast.Node, info *types.Info, errObj types.Object) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	if errObj == nil {
		return out
	}
	mark := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m != nil {
				out[m] = true
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var idSide, nilSide ast.Expr = bin.X, bin.Y
		if IsNilIdent(idSide) {
			idSide, nilSide = bin.Y, bin.X
		}
		if !IsNilIdent(nilSide) {
			return true
		}
		id, ok := ast.Unparen(idSide).(*ast.Ident)
		if !ok || info.Uses[id] != errObj {
			return true
		}
		switch bin.Op {
		case token.NEQ:
			mark(ifs.Body)
		case token.EQL:
			mark(ifs.Else)
		}
		return true
	})
	return out
}
