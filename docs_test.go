package bindlock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteDeclaredNames keeps the prose honest about the code: every
// Test…, Fuzz… or Benchmark… function that DESIGN.md, README.md or
// EXPERIMENTS.md names must be declared in some Go file of the repository,
// and every bindlock.X they name must be declared by the facade package.
func TestDocsCiteDeclaredNames(t *testing.T) {
	funcs := map[string]bool{}  // top-level functions of every package
	facade := map[string]bool{} // top-level identifiers of the facade
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		var top []string // the file's top-level identifiers
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					funcs[decl.Name.Name] = true
					top = append(top, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						top = append(top, spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top = append(top, n.Name)
						}
					}
				}
			}
		}
		if filepath.Dir(path) == "." && !strings.HasSuffix(path, "_test.go") {
			for _, name := range top {
				facade[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	facadeName := regexp.MustCompile(`\bbindlock\.([A-Z]\w*)`)
	tests, names := map[string]bool{}, map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range testName.FindAllString(string(data), -1) {
			tests[name] = true
			if !funcs[name] {
				t.Errorf("%s cites %s, which no Go file declares", doc, name)
			}
		}
		for _, m := range facadeName.FindAllStringSubmatch(string(data), -1) {
			names[m[1]] = true
			if !facade[m[1]] {
				t.Errorf("%s cites bindlock.%s, which the facade does not declare", doc, m[1])
			}
		}
	}
	if len(tests) == 0 || len(names) == 0 {
		t.Fatalf("the docs cite %d test names and %d bindlock names; the check is vacuous", len(tests), len(names))
	}
	t.Logf("the docs cite %d test names and %d bindlock names", len(tests), len(names))
}
