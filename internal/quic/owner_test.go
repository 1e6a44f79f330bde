package quic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ownerMarker is how a comment names what keeps a field consistent: the
// lock that guards it (the connection's, or for its receive queue the
// endpoint's hand-off lock), or why it needs none (DESIGN.md section 5).
var ownerMarker = regexp.MustCompile(`\b(Guarded by c\.(ep\.rx\.)?mu|Set once before publication|Atomic)\b`)

// TestEveryFieldHasAnOwner fails on a field of a connection's state
// whose owner is not written down. A marker in a type's doc comment
// covers every field of the type. Otherwise a marker in a field's
// comment covers that field and the ones after it up to the next blank
// line, so each block of fields starts with its marker.
func TestEveryFieldHasAnOwner(t *testing.T) {
	owned := []string{"Conn", "Stream", "streamSet", "pnSpace", "pathState"}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	marked := func(cg *ast.CommentGroup) bool { return cg != nil && ownerMarker.MatchString(cg.Text()) }
	line := func(p token.Pos) int { return fset.Position(p).Line }
	found := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !slices.Contains(owned, ts.Name.Name) {
					continue
				}
				found[ts.Name.Name] = true
				typeMarked := marked(gd.Doc) || marked(ts.Doc)
				covered, prevEnd := typeMarked, 0
				for _, field := range st.Fields.List {
					start := field.Pos()
					if field.Doc != nil {
						start = field.Doc.Pos()
					}
					if line(start) > prevEnd+1 {
						covered = typeMarked // a blank line ends the block
					}
					covered = covered || marked(field.Doc) || marked(field.Comment)
					prevEnd = line(field.End())
					if !covered {
						name := "embedded field"
						if len(field.Names) > 0 {
							name = field.Names[0].Name
						}
						t.Errorf("%s: %s.%s names no owner", fset.Position(field.Pos()), ts.Name.Name, name)
					}
				}
			}
		}
	}
	for _, name := range owned {
		if !found[name] {
			t.Errorf("struct type %s not found", name)
		}
	}
}
