package cliutil

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

// MissingDocs must flag exactly the undocumented exported names —
// not unexported ones, grouped-decl members, or methods on
// unexported types.
func TestMissingDocsFindsOffenders(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

// Documented is fine.
func Documented() {}

func Undocumented() {}

func unexported() {}

// Grouped covers both members.
const (
	A = 1
	B = 2
)

var Naked = 3

type Bare struct{}

// T is fine.
type T struct{}

func (T) Method() {}

type hidden struct{}

func (hidden) Exported() {}

// WithLineComment needs no doc.
var WithLine = 4 // WithLine explains itself
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := MissingDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range missing {
		names = append(names, m[strings.LastIndex(m, " ")+1:])
	}
	want := map[string]bool{"Undocumented": true, "Naked": true, "Bare": true, "T.Method": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("flagged %q, which is documented or not exported", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missed undocumented %q (flagged: %v)", n, names)
	}
}

// The observability PR's godoc contract: these packages keep every
// exported identifier documented. Runs under plain `go test`, so
// `make check` (and its lint target) catches regressions.
func TestRepoPackagesFullyDocumented(t *testing.T) {
	for _, dir := range []string{
		".", // cliutil itself
		"../obs",
		"../jobs",
		"../results",
		"../server",
		"../faults",
		"../sweep",
		"../store",
		"../fleet",
		"../journal",
		"../frame",
		"../trace",
		"../workload",
		"../workload/spec",
		"../..", // root package: client.go, mapsim.go, worker.go
	} {
		missing, err := MissingDocs(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range missing {
			t.Errorf("%s: undocumented exported identifier: %s", dir, m)
		}
	}
}

// The Makefile's fuzzsmoke target and the repo's fuzz targets name
// the same set. `go test -fuzz=Name` on a package without that target
// only warns and exits 0, so a stale line would pass the gate
// silently, and a target left off the list never runs in it.
func TestFuzzSmokeListsEveryFuzzTarget(t *testing.T) {
	const root = "../.."
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{} // "pkg Name"
	line := regexp.MustCompile(`-fuzz=(\w+)\s.*\s(\.\S*)$`)
	inTarget := false
	for _, l := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(l, "fuzzsmoke:"):
			inTarget = true
		case inTarget && strings.HasPrefix(l, "\t"):
			m := line.FindStringSubmatch(l)
			if m == nil {
				t.Fatalf("fuzzsmoke line not of the form `-fuzz=Name ... ./pkg`: %q", l)
			}
			listed[filepath.Clean(m[2])+" "+m[1]] = true
		default:
			inTarget = false
		}
	}
	if len(listed) == 0 {
		t.Fatal("no fuzzsmoke target in the Makefile")
	}

	found := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module: fuzzsmoke runs this one
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") && takesTestingF(fn) {
				found[filepath.Clean(pkg)+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for k := range listed {
		if !found[k] {
			pkg, name, _ := strings.Cut(k, " ")
			t.Errorf("fuzzsmoke runs -fuzz=%s on %s, which has no func %s(*testing.F)", name, pkg, name)
		}
	}
	for k := range found {
		if !listed[k] {
			pkg, name, _ := strings.Cut(k, " ")
			t.Errorf("fuzz target %s in %s is missing from the Makefile's fuzzsmoke", name, pkg)
		}
	}
}

// takesTestingF reports whether fn's one parameter is a *testing.F.
func takesTestingF(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
