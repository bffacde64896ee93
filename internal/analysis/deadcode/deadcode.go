// Package deadcode implements reprolint's unused-function rule: every
// function and method declared in a package under internal/ must be
// named by some file the loader loads. The loader never loads _test.go
// files, so code that only tests call is dead too. Run over the whole
// program — the root module and the nested benchmark module together —
// a finding is code no command, example, facade option or benchmark
// can reach.
//
// Three things count as a use:
//
//   - a reference to the function from outside its own declaration (a
//     call, a method value, a function value), matched by the origin's
//     FullName: a caller in another package sees an export-data object,
//     not the source-checked one, and the name bridges them;
//   - for a method, a name that some interface type in the program (its
//     dependencies included) declares: a call through the interface
//     names the interface's method, not the implementation;
//   - for a method, a receiver type that a package outside internal/
//     re-exports by alias: the facade's types are public API.
//
// Packages that import testing (test harnesses) are not checked. The
// rule is single-pass: deleting a finding can strand its callees.
package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/reprolint"
)

// Analyzer is the deadcode analyzer.
var Analyzer = &reprolint.Analyzer{
	Name:       "deadcode",
	Doc:        "every function and method under internal/ is named by a non-test file of the program",
	RunProgram: run,
}

func run(pass *reprolint.ProgramPass) error {
	type decl struct {
		fd   *ast.FuncDecl
		recv string // the receiver's type name; empty for a function
	}
	decls := map[string]decl{}                     // by FullName
	ifaceMethods := map[string]bool{"Error": true} // the universe's error
	aliased := map[string]bool{}
	seenImports := map[*types.Package]bool{}
	for _, pkg := range pass.Prog.Pkgs {
		internal := strings.Contains("/"+pkg.ImportPath+"/", "/internal/")
		checked := internal && !importsTesting(pkg.Types)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if checked && ok && d.Name.Name != "init" && d.Name.Name != "_" {
						dc := decl{fd: d}
						if r := obj.Signature().Recv(); r != nil {
							dc.recv = typeName(r.Type())
						}
						decls[obj.FullName()] = dc
					}
				case *ast.GenDecl:
					if internal || d.Tok != token.TYPE {
						continue
					}
					for _, s := range d.Specs {
						if ts := s.(*ast.TypeSpec); ts.Assign.IsValid() {
							aliased[typeName(pkg.TypesInfo.Defs[ts.Name].Type())] = true
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := pkg.TypesInfo.TypeOf(it).(*types.Interface); ok {
						addMethods(ifaceMethods, iface)
					}
				}
				return true
			})
		}
		collectImported(pkg.Types, seenImports, ifaceMethods)
	}

	used := map[string]bool{}
	for _, pkg := range pass.Prog.Pkgs {
		for id, obj := range pkg.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			name := fn.Origin().FullName()
			if d, ok := decls[name]; ok && id.Pos() >= d.fd.Pos() && id.Pos() < d.fd.End() {
				continue // recursion is not a use
			}
			used[name] = true
		}
	}

	for name, d := range decls {
		if used[name] || d.recv == "" && d.fd.Name.Name == "main" ||
			d.recv != "" && (ifaceMethods[d.fd.Name.Name] || aliased[d.recv]) {
			continue
		}
		pass.Reportf(d.fd.Name.Pos(), "%s is never used: no non-test file of the program names it", name)
	}
	return nil
}

func importsTesting(p *types.Package) bool {
	for _, imp := range p.Imports() {
		if imp.Path() == "testing" {
			return true
		}
	}
	return false
}

// collectImported adds the methods of every interface type declared at
// package level in p's transitive imports (fmt.Stringer, sort.Interface,
// io.Reader, ...).
func collectImported(p *types.Package, seen map[*types.Package]bool, names map[string]bool) {
	for _, imp := range p.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		scope := imp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					addMethods(names, iface)
				}
			}
		}
		collectImported(imp, seen, names)
	}
}

func addMethods(names map[string]bool, iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		names[iface.Method(i).Name()] = true
	}
}

// typeName is the package-qualified name of t's named type, looking
// through aliases and one pointer (a method's receiver).
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
