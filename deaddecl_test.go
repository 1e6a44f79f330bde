package quicscan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadDeclarations fails when a package-level func, type or var
// declared in a non-test file under internal/ is named nowhere else in
// the module: not in its own package, not in another, not in a test.
// Such a declaration has no user at all and is deleted, not kept for
// later.
//
// The check matches names, not objects, so it is exact in one direction
// only: what it reports is dead, and a dead declaration that shares its
// name with anything else in the module (a field, a local, a declaration
// in another package) goes unreported. Two kinds of declaration are out
// of its reach for the same reason and are not examined: methods, which
// are used through interfaces that never name them, and consts, whose
// enum members are used by value (quic.KeyUpdateAccept is the zero value
// of its type and named by no caller). There is no allowlist: a report
// is answered by deleting the declaration or by using it.
func TestNoDeadDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[*ast.Ident]bool{} // the declaring identifiers under examination
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || path == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name != "init" {
					declared[decl.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if decl.Tok == token.VAR && name.Name != "_" {
								declared[name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	named := map[string]bool{} // every name the module mentions outside those declarations
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for id := range declared {
		if !named[id.Name] {
			dead = append(dead, fset.Position(id.Pos()).String()+": "+id.Name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is declared and named nowhere else in the module", d)
	}
}
