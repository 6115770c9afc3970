package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCounterNamesDeclared audits every counter-name string literal passed
// to Set.Counter/Inc/Add/Get anywhere under internal/ and asserts it matches a
// constant declared in this package's const block. Code that goes through
// the constants is safe by construction; this catches the raw-literal typo
// ("disk.references") that would otherwise create a silent second counter.
func TestCounterNamesDeclared(t *testing.T) {
	declared := declaredCounterNames(t)
	if len(declared) == 0 {
		t.Fatal("no counter constants found in metrics.go")
	}
	// Duplicate values would silently alias two logical counters.
	byValue := map[string]string{}
	for name, value := range declared {
		if prev, ok := byValue[value]; ok {
			t.Errorf("constants %s and %s both declare counter %q", prev, name, value)
		}
		byValue[value] = name
	}

	root := filepath.Join("..", "..")
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Inc", "Add", "Get":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if _, ok := byValue[name]; !ok {
				t.Errorf("%s: counter name %q is not declared in the metrics const block",
					fset.Position(lit.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// declaredCounterNames parses metrics.go and returns constName → string value
// for every string constant declared at package scope.
func declaredCounterNames(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, ident := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				value, err := strconv.Unquote(lit.Value)
				if err != nil {
					continue
				}
				out[ident.Name] = value
			}
		}
	}
	return out
}
