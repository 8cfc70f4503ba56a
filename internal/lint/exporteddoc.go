package lint

import (
	"go/ast"
	"go/token"
)

// ExportedDoc requires doc comments on the exported identifiers of the
// module's root package (the api.go surface). External importers see
// only that facade, so every exported name there must explain itself.
// No other gate sees this: the fixture's five undocumented names, seeded
// into the root package, pass go vet and the tests. Grouped declarations may share the group's doc comment
// or carry a trailing line comment.
var ExportedDoc = &Analyzer{
	Name: "exporteddoc",
	Doc:  "require doc comments on exported identifiers of the module's root package",
	Run:  runExportedDoc,
}

func runExportedDoc(pass *Pass) {
	if pass.Pkg.Rel != "." {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
					pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", funcKind(d), d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(pass, d)
			}
		}
	}
}

// funcKind names a FuncDecl for diagnostics.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// exportedRecv reports whether d is a plain function or a method on an
// exported receiver type (methods on unexported types are not part of
// the public surface).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	name := recvTypeName(d.Recv.List[0].Type)
	return name == "" || ast.IsExported(name)
}

// checkGenDecl requires a doc comment on each exported spec of a
// type/const/var declaration. A spec is documented if it has its own doc,
// a trailing line comment, or the enclosing group has a doc comment.
func checkGenDecl(pass *Pass, d *ast.GenDecl) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil || d.Doc != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
					break
				}
			}
		}
	}
}
