package omptune

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneAccessPath keeps package omptune the library surface for code
// outside the module and nothing more: the commands under cmd/ call the
// internal packages directly, and every function omptune.go exports is
// called from README.md's library usage, a godoc example or the benchmark.
func TestOneAccessPath(t *testing.T) {
	fset := token.NewFileSet()
	cmds, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no command sources found (%v)", err)
	}
	for _, path := range cmds {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"omptune"` {
				t.Errorf("%s imports omptune; commands call the internal packages", path)
			}
		}
	}

	users, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var calls strings.Builder
	for _, path := range append([]string{"README.md", "example_test.go"}, users...) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		calls.Write(raw)
	}
	facade, err := parser.ParseFile(fset, "omptune.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range facade.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		if !strings.Contains(calls.String(), "omptune."+fn.Name.Name+"(") {
			t.Errorf("omptune.%s has no caller in README.md, example_test.go or benchmark/", fn.Name.Name)
		}
	}
}
