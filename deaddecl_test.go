package quicscan

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// the same reason, and the fifth rule covers them. There is no
// allowlist: a report is answered by deleting the declaration or by
// using it.
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
// The fifth reads what the program is made of: the six commands and the
// bench driver, built with inlining off for the module's packages, and
// each binary's text symbols (go tool nm). A func or method declared in
// a non-test file under internal/ that the host build compiles is
// reported when no binary links it and no file outside its package names
// it (another package's tests may: Go cannot share test files between
// packages). A generic matches its instantiations. That closes the gap
// of the rules above: a chain of functions that only call each other,
// and a method only a test calls. Two kinds of method are exempt,
// because the linker drops a method no interface call can reach: one
// that an interface the module declares names (the frameType markers),
// and one that makes its type satisfy a std interface of stdInterfaces.
//
// The sixth holds data to the fifth's standard: a setting no command
// has is a dimension of the results that nothing varies, and a field no
// reader has is work for nothing. It type-checks the program files and
// reports an exported field of an exported struct declared in a non-test
// file under internal/ that no program file writes (fieldCensus says
// what a write is; a default is not one), or that no program file reads
// while its struct has no json tag. The fields listed under
// fieldsHeading in DESIGN.md §19 are its only exceptions, and a listed
// field it would not report is reported.
//
// Run with -v, it logs each package's exported package-level names
// (types included) and how many another package names, and the sixth
// rule's counts.
func TestNoDeadDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)

	// The declaring identifiers under the first two rules, each marked
	// with whether the second applies (an unexported func or var), and
	// the exported names under the last two, by package directory.
	declared := map[*ast.Ident]bool{}
	exported := map[string]map[string]*exportedDecl{}
	var funcs []funcDecl // the fifth rule's
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
				if ok, _ := build.Default.MatchFile(f.dir, filepath.Base(fset.Position(decl.Pos()).Filename)); ok && decl.Name.Name != "init" {
					funcs = append(funcs, funcDecl{decl, f.dir, recvName(decl)})
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
	// Selector names by the package directories whose files use them,
	// and the methods the module's interfaces name.
	selectedIn := map[string]map[string]bool{}
	ifaceMethods := map[string]bool{}
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
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.SelectorExpr:
				if selectedIn[n.Sel.Name] == nil {
					selectedIn[n.Sel.Name] = map[string]bool{}
				}
				selectedIn[n.Sel.Name][f.dir] = true
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

	linked, err := linkedFuncs()
	if err != nil {
		t.Fatal(err)
	}
	// The method names each type under internal/ declares ("dir.T"), for
	// the std interface exemption.
	methodsOf := map[string]map[string]bool{}
	for _, fd := range funcs {
		if key := fd.dir + "." + fd.recv; fd.recv != "" {
			if methodsOf[key] == nil {
				methodsOf[key] = map[string]bool{}
			}
			methodsOf[key][fd.Name.Name] = true
		}
	}
	// A function no binary links is reached when another package names
	// it, and so is every function of its package that a reached
	// function's body names (the helpers of another package's test
	// support); the rest is reported.
	var unlinked, reachedFuncs []funcDecl
	for _, fd := range funcs {
		name, key := fd.Name.Name, fd.dir+"."+fd.Name.Name
		if fd.recv != "" {
			key = fd.dir + "." + fd.recv + "." + name
			if ifaceMethods[name] || satisfiesStd(methodsOf[fd.dir+"."+fd.recv], name) {
				continue
			}
		}
		if linked[key] {
			continue
		}
		namedOutside := false
		for dir := range selectedIn[name] {
			namedOutside = namedOutside || (dir != fd.dir && fd.Name.IsExported())
		}
		if namedOutside {
			reachedFuncs = append(reachedFuncs, fd)
		} else {
			unlinked = append(unlinked, fd)
		}
	}
	reached := map[[2]string]bool{} // package directory, name
	for len(reachedFuncs) > 0 {
		fd := reachedFuncs[len(reachedFuncs)-1]
		reachedFuncs = reachedFuncs[:len(reachedFuncs)-1]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !reached[[2]string{fd.dir, id.Name}] {
				reached[[2]string{fd.dir, id.Name}] = true
				for _, u := range unlinked {
					if u.dir == fd.dir && u.Name.Name == id.Name {
						reachedFuncs = append(reachedFuncs, u)
					}
				}
			}
			return true
		})
	}
	for _, fd := range unlinked {
		if !reached[[2]string{fd.dir, fd.Name.Name}] {
			name := fd.Name.Name
			if fd.recv != "" {
				name = fd.recv + "." + name
			}
			dead = append(dead, fset.Position(fd.Name.Pos()).String()+": "+name+
				" is linked into no command and named by no other package")
		}
	}

	exports, err := stdExports()
	if err != nil {
		t.Fatal(err)
	}
	hostFiles := slices.DeleteFunc(slices.Clone(files), func(f goFile) bool {
		ok, _ := build.Default.MatchFile(f.dir, filepath.Base(fset.Position(f.Package).Filename))
		return !ok
	})
	census, err := fieldCensus(hostFiles, fset, exportImporter(fset, exports))
	if err != nil {
		t.Fatal(err)
	}
	fields, total, unset, writeOnly := fieldReports(fset, census, listedFields(t))
	t.Logf("exported fields of exported structs under internal/: %d; set by no program file: %d; written and never read: %d", total, unset, writeOnly)
	dead = append(dead, fields...)

	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// funcDecl is a func or method of a host-built file under internal/,
// with its package directory and its receiver's type name ("" for a
// func).
type funcDecl struct {
	*ast.FuncDecl
	dir, recv string
}

// recvName is the name of the type a method is declared on, or "".
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// stdInterfaces are the std interfaces whose methods a type under
// internal/ may hold for std code to call through them, which the
// linker keeps only where such a call can reach them.
var stdInterfaces = []reflect.Type{
	reflect.TypeFor[net.Listener](),
	reflect.TypeFor[net.PacketConn](),
	reflect.TypeFor[fmt.Stringer](),
	reflect.TypeFor[error](),
	reflect.TypeFor[json.Marshaler](),
}

// satisfiesStd reports whether method is one of a std interface that a
// type declaring methods has every method of.
func satisfiesStd(methods map[string]bool, method string) bool {
	for _, iface := range stdInterfaces {
		if _, ok := iface.MethodByName(method); !ok {
			continue
		}
		all := true
		for i := 0; i < iface.NumMethod(); i++ {
			all = all && methods[iface.Method(i).Name]
		}
		if all {
			return true
		}
	}
	return false
}

// linkedFuncs builds the commands and the bench driver once per process,
// with inlining off for the module's packages so that no function of
// ours is linked only as inlined code, and returns what their text
// symbols hold: for each function "dir.F" and for each method
// "dir.T.M", dir its package directory below the module, with generic
// instantiations folded into their generic.
var linkedFuncs = sync.OnceValues(func() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "deaddecl")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-gcflags="+modulePath+"/...=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./bench")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the commands: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", "-type", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", bin.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
				continue
			}
			sym, ok := strings.CutPrefix(stripTypeArgs(strings.Join(fields[2:], " ")), modulePath+"/")
			if !ok {
				continue
			}
			// The package path ends at the first dot after its last slash.
			slash := strings.LastIndex(sym, "/")
			dot := strings.Index(sym[slash+1:], ".")
			if slash < 0 || dot < 0 {
				continue
			}
			pkg, rest := sym[:slash+1+dot], sym[slash+2+dot:]
			// (*T).M is T.M; F.func1 is a closure inside F.
			parts := strings.Split(strings.NewReplacer("(*", "", ")", "").Replace(rest), ".")
			linked[pkg+"."+parts[0]] = true
			if len(parts) > 1 {
				linked[pkg+"."+parts[0]+"."+parts[1]] = true
			}
		}
	}
	return linked, nil
})

// stripTypeArgs drops every bracketed type-argument list from a symbol,
// so that an instantiation reads as its generic.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// fieldUse is what the module's program files do with one exported field
// of an exported struct under internal/.
type fieldUse struct {
	pos           token.Pos
	written, read bool
	encoded       bool // its struct has a json tag
}

// fieldCensus type-checks the program files among files, package by
// package in import order with std from imp, and returns what they do
// with each exported field of an exported struct declared under
// internal/, keyed "pkg.Type.Field" by the package's name.
//
// A field is written by a composite literal element, an assignment, ++
// or --, or &x.F; an element of an array field writes the field, and a
// slice of one does as &x.F does. &x.F counts as a read too: whatever
// holds the address may read it. An assignment in the body of
// `if x.F == zero` to the same x.F replaces the zero value only: it is a
// default, not a write. In `x.F = append(x.F, v)` the x.F on the right
// is not a read: the field only grows. Every other selection of the
// field is a read, and so is each embedded field a promoted selection
// passes through.
func fieldCensus(files []goFile, fset *token.FileSet, imp types.Importer) (map[string]*fieldUse, error) {
	files = slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return f.test })
	checked, infos, err := typeCheck(files, fset, imp)
	if err != nil {
		return nil, err
	}

	census := map[string]*fieldUse{}
	keys := map[*types.Var]string{}
	for dir, pkg := range checked {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			encoded := false
			for i := 0; i < st.NumFields(); i++ {
				encoded = encoded || reflect.StructTag(st.Tag(i)).Get("json") != ""
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() && !v.Embedded() {
					keys[v] = pkg.Name() + "." + name + "." + v.Name()
					census[keys[v]] = &fieldUse{pos: v.Pos(), encoded: encoded}
				}
			}
		}
	}

	for _, f := range files {
		info := infos[f.dir]
		// field is the census entry x.F selects, marking the embedded
		// fields a promoted selection passes through as read.
		field := func(e ast.Expr) *fieldUse {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
				return nil
			}
			s := info.Selections[sel]
			typ := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				st, _ := derefStruct(typ)
				if u := census[keys[st.Field(i)]]; u != nil {
					u.read = true
				}
				typ = st.Field(i).Type()
			}
			return census[keys[s.Obj().(*types.Var)]]
		}
		defaults := map[ast.Stmt]bool{}
		var visit func(n ast.Node) bool
		// write marks what an assigned expression writes, and visits
		// its operands. An element or a slice of an array field writes
		// the field.
		write := func(e ast.Expr, alsoRead bool) {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); ok {
					e = x.X
					ast.Inspect(x.Index, visit)
				}
			case *ast.SliceExpr:
				if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); ok {
					e, alsoRead = x.X, true
					for _, i := range []ast.Expr{x.Low, x.High, x.Max} {
						if i != nil {
							ast.Inspect(i, visit)
						}
					}
				}
			}
			if u := field(e); u != nil {
				u.written = true
				u.read = u.read || alsoRead
				ast.Inspect(ast.Unparen(e).(*ast.SelectorExpr).X, visit)
				return
			}
			ast.Inspect(e, visit)
		}
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if cond, ok := n.Cond.(*ast.BinaryExpr); ok && cond.Op == token.EQL && isZero(info, cond.Y) && field(cond.X) != nil {
					for _, s := range n.Body.List {
						if as, ok := s.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == 1 &&
							types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
							defaults[as] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if defaults[n] {
						ast.Inspect(ast.Unparen(lhs).(*ast.SelectorExpr).X, visit)
						continue
					}
					write(lhs, false)
				}
				for i, rhs := range n.Rhs {
					if len(n.Lhs) == len(n.Rhs) && isAppendTo(info, rhs, n.Lhs[i]) && field(n.Lhs[i]) != nil {
						call := ast.Unparen(rhs).(*ast.CallExpr)
						ast.Inspect(ast.Unparen(call.Args[0]).(*ast.SelectorExpr).X, visit)
						for _, arg := range call.Args[1:] {
							ast.Inspect(arg, visit)
						}
						continue
					}
					ast.Inspect(rhs, visit)
				}
				return false
			case *ast.IncDecStmt:
				write(n.X, false)
				return false
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X, true)
					return false
				}
			case *ast.SliceExpr:
				if _, ok := info.Types[n.X].Type.Underlying().(*types.Array); ok {
					write(n, true)
					return false
				}
			case *ast.CompositeLit:
				st, ok := derefStruct(info.Types[n].Type)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					v := (*types.Var)(nil)
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					} else if i < st.NumFields() {
						v = st.Field(i)
					}
					if u := census[keys[v]]; u != nil {
						u.written = true
					}
				}
			case *ast.SelectorExpr:
				if u := field(n); u != nil {
					u.read = true
				}
			}
			return true
		}
		ast.Inspect(f.File, visit)
	}
	return census, nil
}

// typeCheck type-checks files by package directory, each package after
// those it imports, with std from imp, and returns each package and its
// type information by directory.
func typeCheck(files []goFile, fset *token.FileSet, imp types.Importer) (map[string]*types.Package, map[string]*types.Info, error) {
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		byDir[f.dir] = append(byDir[f.dir], f.File)
	}
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(dir string) error
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(p, modulePath+"/")
		if !ok {
			return imp.Import(p)
		}
		if checked[dir] == nil {
			if err := check(dir); err != nil {
				return nil, err
			}
		}
		return checked[dir], nil
	})}
	check = func(dir string) error {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := conf.Check(modulePath+"/"+dir, fset, byDir[dir], info)
		if err != nil {
			return err
		}
		checked[dir], infos[dir] = pkg, info
		return nil
	}
	for dir := range byDir {
		if checked[dir] == nil {
			if err := check(dir); err != nil {
				return nil, nil, err
			}
		}
	}
	return checked, infos, nil
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// derefStruct is the struct a value of typ, or of *typ, is.
func derefStruct(typ types.Type) (*types.Struct, bool) {
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	return st, ok
}

// isAppendTo reports whether e is append(lhs, ...): a call of the
// builtin whose first argument is lhs itself.
func isAppendTo(info *types.Info, e, lhs ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs)
}

// isZero reports whether e is a constant zero value or nil.
func isZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.IsNil() {
		return true
	}
	switch v := tv.Value; {
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	default:
		return constant.Sign(v) == 0
	}
}

// stdExports maps each std package the module depends on to its export
// data file, as go list -export gives it.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		if p, file, ok := strings.Cut(line, "="); ok {
			exports[p] = file
		}
	}
	return exports, nil
})

// exportImporter imports packages from their export data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(file)
	})
}

// fieldReports is the sixth rule over a census: a field no program file
// sets, and a field no program file reads whose struct is not encoded,
// unless listed (as pkg.Type.Field); and a listed field it does not
// report. It also counts the census's
// fields, those no program file sets and those only written.
func fieldReports(fset *token.FileSet, census map[string]*fieldUse, listed []string) (reports []string, total, unset, writeOnly int) {
	covered := map[string]bool{}
	for key, u := range census {
		var why string
		switch {
		case !u.written:
			unset++
			why = " is exported and set by no program file: only tests set it, or nothing does"
		case !u.read && !u.encoded:
			writeOnly++
			why = " is exported, written, and read by no program file"
		default:
			continue
		}
		if slices.Contains(listed, key) {
			covered[key] = true
			continue
		}
		reports = append(reports, fset.Position(u.pos).String()+": "+key+why)
	}
	for _, name := range listed {
		if !covered[name] {
			reports = append(reports, "DESIGN.md: "+name+" is listed in §19 and the sixth rule does not report it: take it out of the table")
		}
	}
	return reports, len(census), unset, writeOnly
}

// fieldsHeading opens the part of DESIGN.md that lists the sixth rule's
// exceptions.
const fieldsHeading = "### Fields no program file sets or reads"

// listedField is a code span naming pkg.Type.Field.
var listedField = regexp.MustCompile("`([a-z][a-z0-9]*\\.[A-Z]\\w*\\.[A-Z]\\w*)`")

// listedFields are the names in the code spans of the last column of the
// table under fieldsHeading in DESIGN.md: the sixth rule's exceptions.
func listedFields(t *testing.T) []string {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, part, ok := strings.Cut(string(doc), "\n"+fieldsHeading+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no heading %q", fieldsHeading)
	}
	var listed []string
	for _, line := range strings.Split(part, "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if cells := strings.Split(strings.TrimSuffix(line, "|"), "|"); strings.HasPrefix(line, "|") {
			for _, m := range listedField.FindAllStringSubmatch(cells[len(cells)-1], -1) {
				listed = append(listed, m[1])
			}
		}
	}
	return listed
}
