package quicscan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path prefix of every package in the module.
const modulePath = "quicscan"

// goFile is one parsed file of the module and the package it belongs
// to: dir is its directory, the package's import path below the module,
// and extTest marks a file of that directory's _test package.
type goFile struct {
	*ast.File
	dir           string
	test, extTest bool
}

// parseModule parses every .go file of the module, tests included.
func parseModule(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name[0] == '.' || name == "testdata" || p == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			File:    f,
			dir:     filepath.ToSlash(filepath.Dir(p)),
			test:    strings.HasSuffix(p, "_test.go"),
			extTest: strings.HasSuffix(f.Name.Name, "_test"),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// exportedDecl is an exported package-level name of a package under
// internal/: its declaring identifier, whether it is a type, and for a
// const its type's name (an enum, if the package declares that type).
type exportedDecl struct {
	id        *ast.Ident
	isType    bool
	funcOrVar bool // the fourth rule's
	enum      string
}

// Who names an exported name qualified, as p.Name, or (its package's
// internal tests) unqualified.
const (
	byOtherPkg   = 1 << iota // a file of another package
	byOwnExtTest             // the package's own _test package
	byOwnTest                // any test file of the package
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
// in another package) goes unreported. Methods are out of its reach for
// the same reason and are not examined: they are used through
// interfaces that never name them. There is no allowlist: a report is
// answered by deleting the declaration or by using it.
//
// A second rule holds product code to the same standard: an unexported
// package-level func or var that only _test.go files name is reported
// too. Nothing the program runs uses it, and a test of it tests nothing
// the program does.
//
// Two more rules keep each package's exported surface to what other
// packages use. They resolve every qualified selector p.Name through
// its file's imports, which is exact for package-level names. The third:
// an exported package-level func, var or const under internal/P that no
// file outside package P names as p.Name is reported; a test of another
// package and P's own _test package are outside P. A const of a named
// type is exempt while another const of that type is named outside: it
// is a member of an enum the other packages use (quic.KeyUpdateAccept is
// the zero value of its type and named by no caller). The fourth is the
// second rule for exported names: an exported func or var that only P's
// own test files name is reported.
//
// Run with -v, it logs each package's exported package-level names
// (types included) and how many another package names.
func TestNoDeadDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)

	// The declaring identifiers under the first two rules, each marked
	// with whether the second applies (an unexported func or var), and
	// the exported names under the last two, by package directory.
	declared := map[*ast.Ident]bool{}
	exported := map[string]map[string]*exportedDecl{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		export := func(id *ast.Ident, d *exportedDecl) {
			if !id.IsExported() {
				return
			}
			if exported[f.dir] == nil {
				exported[f.dir] = map[string]*exportedDecl{}
			}
			d.id = id
			exported[f.dir][id.Name] = d
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name != "init" {
					declared[decl.Name] = !decl.Name.IsExported()
					export(decl.Name, &exportedDecl{funcOrVar: true})
				}
			case *ast.GenDecl:
				// A const spec without a type or a value repeats the
				// one before it (iota enums).
				var typ ast.Expr
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name] = false
						export(spec.Name, &exportedDecl{isType: true})
					case *ast.ValueSpec:
						if spec.Type != nil || spec.Values != nil {
							typ = spec.Type
						}
						for _, name := range spec.Names {
							if name.Name == "_" {
								continue
							}
							if decl.Tok == token.VAR {
								declared[name] = !name.IsExported()
								export(name, &exportedDecl{funcOrVar: true})
								continue
							}
							d := &exportedDecl{}
							if id, ok := typ.(*ast.Ident); ok {
								d.enum = id.Name
							}
							export(name, d)
						}
					}
				}
			}
		}
	}

	// Every name the module mentions outside those declarations: in
	// program files, and in tests; and, per package directory, the
	// names its own program files mention.
	inCode, inTests := map[string]bool{}, map[string]bool{}
	inOwnCode := map[string]map[string]bool{}
	// Who names each exported name, by package directory and name.
	used := map[[2]string]int{}
	for _, f := range files {
		named := inCode
		if f.test {
			named = inTests
		} else if inOwnCode[f.dir] == nil {
			inOwnCode[f.dir] = map[string]bool{}
		}
		imports := map[string]string{} // local name -> package directory
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !strings.HasPrefix(p, modulePath+"/") {
				continue
			}
			local := path.Base(p)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = strings.TrimPrefix(p, modulePath+"/")
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if _, decl := declared[n]; !decl {
					named[n.Name] = true
					if !f.test {
						inOwnCode[f.dir][n.Name] = true
					}
				}
				if _, ok := exported[f.dir][n.Name]; ok && f.test && !f.extTest {
					used[[2]string{f.dir, n.Name}] |= byOwnTest
				}
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				if !ok {
					break
				}
				dir, ok := imports[x.Name]
				if !ok {
					break
				}
				by := byOtherPkg
				if dir == f.dir {
					by = byOwnExtTest | byOwnTest
				}
				used[[2]string{dir, n.Sel.Name}] |= by
			}
			return true
		})
	}

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

	dirs := make([]string, 0, len(exported))
	for dir := range exported {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var table strings.Builder
	fmt.Fprintf(&table, "%-16s %8s %14s\n", "package", "exported", "named outside")
	var total, totalOutside int
	for _, dir := range dirs {
		pkg := path.Base(dir)
		const outside = byOtherPkg | byOwnExtTest
		// The enums a member of which is named outside the package.
		enums := map[string]bool{}
		for name, d := range exported[dir] {
			if typ := exported[dir][d.enum]; used[[2]string{dir, name}]&outside != 0 && typ != nil && typ.isType {
				enums[d.enum] = true
			}
		}
		namedOutside := 0
		for name, d := range exported[dir] {
			by := used[[2]string{dir, name}]
			if by&byOtherPkg != 0 {
				namedOutside++
			}
			if d.isType {
				continue
			}
			at := fset.Position(d.id.Pos()).String() + ": " + name
			switch {
			case d.funcOrVar && by&byOtherPkg == 0 && !inOwnCode[dir][name] && by&byOwnTest != 0:
				dead = append(dead, at+" is exported, and only package "+pkg+"'s tests name it")
			case by&outside == 0 && !enums[d.enum]:
				dead = append(dead, at+" is exported, and nothing outside package "+pkg+" names it: unexport it")
			}
		}
		fmt.Fprintf(&table, "%-16s %8d %14d\n", pkg, len(exported[dir]), namedOutside)
		total += len(exported[dir])
		totalOutside += namedOutside
	}
	fmt.Fprintf(&table, "%-16s %8d %14d", "total", total, totalOutside)
	t.Logf("exported package-level names under internal/, and how many another package names:\n%s", table.String())

	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}
