package quicscan

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docRef is a backticked reference in prose: a package name, a dot and
// a name, then any further .Name (a method or field of it).
var docRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)((?:\.[A-Za-z_]\w*)+)`)

// bareName is a code span that is one lowerCamel identifier and nothing
// else: an unexported name, a field, a method or a local.
var bareName = regexp.MustCompile(`^[a-z][a-z0-9]*[A-Z][A-Za-z0-9]*$`)

// TestDocsNameOnlyWhatExists fails when DESIGN.md, README.md or
// EXPERIMENTS.md names code that is not there. Every inline code span
// is searched for pkg.name, where pkg is the name of one of the
// module's packages; name, and each .member after it, must be declared
// in that package (package-level, a method or a field; test files
// count), or pkg.name is a per_layer metric of BENCHMARK.json. A span
// that is a bare lowerCamel name (`routeTable`, `activeAP`) must be
// declared somewhere in the module: package-level, a method, a field or
// a local. Fenced code blocks hold commands and output, and are not
// searched.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]map[string]bool{} // package name -> names
	anywhere := map[string]bool{}            // every name the module declares
	define := func(exprs ...ast.Expr) {
		for _, e := range exprs {
			if id, ok := e.(*ast.Ident); ok {
				anywhere[id.Name] = true
			}
		}
	}
	for _, f := range parseModule(t, fset) {
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		names := declared[pkg]
		if names == nil {
			names = map[string]bool{}
			if pkg != "main" { // a command is no package to name
				declared[pkg] = names
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							names[name.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FieldList:
				for _, field := range n.List {
					for _, name := range field.Names {
						names[name.Name] = true
						anywhere[name.Name] = true
					}
				}
			case *ast.FuncDecl:
				define(n.Name)
			case *ast.TypeSpec:
				define(n.Name)
			case *ast.ValueSpec:
				for _, name := range n.Names {
					define(name)
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					define(n.Lhs...)
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					define(n.Key, n.Value)
				}
			}
			return true
		})
	}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
	}

	checked, bare := 0, map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			spans := strings.Split(line, "`")
			for j := 1; j < len(spans)-1; j += 2 {
				if bareName.MatchString(spans[j]) {
					bare[spans[j]] = true
					if !anywhere[spans[j]] {
						t.Errorf("%s:%d: `%s` is declared nowhere in the module", doc, i+1, spans[j])
					}
					continue
				}
				for _, m := range docRef.FindAllStringSubmatch(spans[j], -1) {
					pkg, names := m[1], declared[m[1]]
					if names == nil {
						continue
					}
					checked++
					ref := pkg + m[2]
					if metrics[ref] {
						continue
					}
					for _, name := range strings.Split(m[2], ".")[1:] {
						if !names[name] {
							t.Errorf("%s:%d: `%s` names %s, which package %s does not declare", doc, i+1, ref, name, pkg)
							break
						}
					}
				}
			}
		}
	}
	if checked == 0 || len(bare) == 0 {
		t.Error("no pkg.name reference or no bare name found: the search is broken")
	}
	t.Logf("%d references and %d distinct bare names checked", checked, len(bare))
}
