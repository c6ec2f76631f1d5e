package omptune

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
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

// TestNoTestOnlyExports keeps the internal packages' exported surface to what
// the program uses: every exported function or method declared in a non-test
// file under internal/ or openmp/ must be referenced from a non-test file of
// the module or of benchmark/, its own declaration aside. A function counts
// as referenced where its package names it or another file selects it through
// its import; a method, where any selector or interface names it. A helper
// only a test calls is unexported, or lives in the test.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{} // "pkgpath.Func" and bare method names
	type export struct{ pos, name, key string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "omptune/" + filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := ipath[strings.LastIndexByte(ipath, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ipath
		}
		skip := map[*ast.Ident]bool{} // declarations, and the names selectors pick
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fn.Name] = true
			if !fn.Name.IsExported() || !(strings.HasPrefix(pkg, "omptune/internal/") || strings.HasPrefix(pkg, "omptune/openmp")) {
				continue
			}
			e := export{fset.Position(fn.Pos()).String(), fn.Name.Name, pkg + "." + fn.Name.Name}
			if fn.Recv != nil {
				e.name = "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + e.name
				e.key = fn.Name.Name
			}
			exports = append(exports, e)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				used[n.Sel.Name] = true
				skip[n.Sel] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						used[id.Name] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// omp_get_place_num: the openmp runtime's API for the programs it runs.
	kept := map[string]bool{"(*Thread).Place": true}
	for _, e := range exports {
		if !used[e.key] && !kept[e.name] {
			t.Errorf("%s: %s is exported but only tests call it", e.pos, e.name)
		}
	}
}

// TestOneEventType keeps one record shape for a campaign's progress: exactly
// one struct type in the module's non-test Go (benchmark/ aside) declares a
// field tagged json:"type" — core.Event, which OnProgress, the telemetry log
// and the live monitor share. A second record type for a new stream or reader
// fails here; add the fields to core.Event instead.
func TestOneEventType(t *testing.T) {
	fset := token.NewFileSet()
	var typed []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Tag == nil {
					continue
				}
				name, _, _ := strings.Cut(reflect.StructTag(strings.Trim(field.Tag.Value, "`")).Get("json"), ",")
				if name == "type" {
					typed = append(typed, fmt.Sprintf("%s: %s", fset.Position(spec.Pos()), spec.Name.Name))
					break
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(typed) != 1 {
		t.Errorf("%d struct types declare a json:\"type\" field, want one record type:\n%s", len(typed), strings.Join(typed, "\n"))
	}
}
