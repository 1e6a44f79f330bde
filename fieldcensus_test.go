package quicscan

import (
	"go/parser"
	"go/token"
	"path"
	"slices"
	"strings"
	"testing"
)

// TestFieldCensusRule feeds the sixth rule of TestNoDeadDeclarations
// small packages and checks what it reports: the file names are paths
// in a module, a _test.go name makes a test file, and want holds the
// report of each field ("p.T.F unset", "p.T.F write-only") and each
// stale listing ("listed p.T.F"), in any order.
func TestFieldCensusRule(t *testing.T) {
	exports, err := stdExports()
	if err != nil {
		t.Fatal(err)
	}
	const user = `package main
import "quicscan/internal/p"
func main() { _ = p.Get(p.T{F: 1}) }`
	for _, c := range []struct {
		name   string
		files  map[string]string
		listed []string
		want   []string
	}{{
		name: "a setting only a test sets",
		files: map[string]string{
			"internal/p/p.go":      `package p; type T struct{ F int }; func Get(t T) int { return t.F }`,
			"internal/p/p_test.go": `package p; var _ = Get(T{F: 1})`,
		},
		want: []string{"p.T.F unset"},
	}, {
		name: "a setting a command sets",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int }; func Get(t T) int { return t.F }`,
			"cmd/c/main.go":   user,
		},
	}, {
		name: "a defaulting write",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int }
func Get(t T) int { if t.F == 0 { t.F = 3 }; return t.F }`,
		},
		want: []string{"p.T.F unset"},
	}, {
		name: "a write that is not a default",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F, G int }
func Get(t T) int { if t.G == 0 { t.F = 3 }; return t.F + t.G }`,
			"cmd/c/main.go": `package main
import "quicscan/internal/p"
func main() { _ = p.Get(p.T{G: 1}) }`,
		},
	}, {
		name: "a write-only field",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F, N int }
func Get(t T) int { t.N++; return t.F }`,
			"cmd/c/main.go": user,
		},
		want: []string{"p.T.N write-only"},
	}, {
		name: "a field only appended to",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int; L []int }
func Get(t T) int { t.L = append(t.L, t.F); return t.F }`,
			"cmd/c/main.go": user,
		},
		want: []string{"p.T.L write-only"},
	}, {
		name: "a field appended to and read",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int; L []int }
func Get(t T) int { t.L = append(t.L, t.F); return t.F + len(t.L) }`,
			"cmd/c/main.go": user,
		},
	}, {
		name: "a json-tagged record",
		files: map[string]string{
			"internal/p/p.go": "package p; type R struct{ N int `json:\"n\"` }; func New() R { return R{N: 1} }",
		},
	}, {
		name: "fields written through an address and an array slice",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int; K [4]byte }
func Bind(t *T) (*int, []byte) { return &t.F, t.K[:] }`,
		},
	}, {
		name: "a listed field",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int }; func Get(t T) int { return t.F }`,
		},
		listed: []string{"p.T.F"},
	}, {
		name: "a listing the rule does not need",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ F int }; func Get(t T) int { return t.F }`,
			"cmd/c/main.go":   user,
		},
		listed: []string{"p.T.F"},
		want:   []string{"listed p.T.F"},
	}, {
		name: "unexported fields, unexported structs and fields outside internal/",
		files: map[string]string{
			"internal/p/p.go": `package p; type T struct{ f int }; type t struct{ F int }
func Get(x T, y t) int { return x.f + y.F }`,
			"cmd/c/main.go": `package main; type T struct{ F int }; func main() {}`,
		},
	}} {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []goFile
			for name, src := range c.files {
				f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, goFile{File: f, dir: path.Dir(name), test: strings.HasSuffix(name, "_test.go")})
			}
			census, err := fieldCensus(files, fset, exportImporter(fset, exports))
			if err != nil {
				t.Fatal(err)
			}
			reports, _, _, _ := fieldReports(fset, census, c.listed)
			var got []string
			for _, r := range reports {
				switch _, r, _ = strings.Cut(r, ": "); {
				case strings.Contains(r, "is listed in §19"):
					got = append(got, "listed "+strings.Fields(r)[0])
				case strings.Contains(r, "set by no program file"):
					got = append(got, strings.Fields(r)[0]+" unset")
				default:
					got = append(got, strings.Fields(r)[0]+" write-only")
				}
			}
			slices.Sort(got)
			slices.Sort(c.want)
			if !slices.Equal(got, c.want) {
				t.Errorf("reports %q, want %q\n%s", got, c.want, strings.Join(reports, "\n"))
			}
		})
	}
}
