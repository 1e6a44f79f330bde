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
//
// A second rule holds product code to the same standard: an unexported
// package-level func or var that only _test.go files name is reported
// too. Nothing the program runs uses it, and a test of it tests nothing
// the program does.
func TestNoDeadDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	// The declaring identifiers under examination, each marked with
	// whether the second rule applies (an unexported func or var).
	declared := map[*ast.Ident]bool{}
	var files, testFiles []*ast.File
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
		if strings.HasSuffix(path, "_test.go") {
			testFiles = append(testFiles, f)
			return nil
		}
		files = append(files, f)
		if !strings.HasPrefix(path, "internal/") {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name != "init" {
					declared[decl.Name] = !decl.Name.IsExported()
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name] = false
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if decl.Tok == token.VAR && name.Name != "_" {
								declared[name] = !name.IsExported()
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

	// Every name the module mentions outside those declarations: in
	// program files, and in tests.
	names := func(files []*ast.File) map[string]bool {
		named := map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if _, decl := declared[id]; !decl {
						named[id.Name] = true
					}
				}
				return true
			})
		}
		return named
	}
	inCode, inTests := names(files), names(testFiles)
	var dead []string
	for id, testOnly := range declared {
		at := fset.Position(id.Pos()).String() + ": " + id.Name
		switch {
		case !inCode[id.Name] && !inTests[id.Name]:
			dead = append(dead, at+" is declared and named nowhere else in the module")
		case !inCode[id.Name] && testOnly:
			dead = append(dead, at+" is named only by tests")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}
