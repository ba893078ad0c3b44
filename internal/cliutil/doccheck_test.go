package cliutil

import (
	"os"
	"path/filepath"
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
