package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestAnalyzers runs each registered analyzer over its golden testdata,
// testdata/<Name>: a `flagged` package where every violation carries a
// // want comment, and a `clean` package where any finding is a false
// positive. lockorder also owns testdata/lockheld, the goldens of its
// must-hold check of //repro:requires-lock. Every testdata directory
// must belong to a registered analyzer, so the suite and its goldens
// cannot drift apart.
func TestAnalyzers(t *testing.T) {
	type golden struct {
		dir string
		a   *lint.Analyzer
	}
	var goldens []golden
	for _, a := range lint.Analyzers() {
		goldens = append(goldens, golden{a.Name, a})
	}
	goldens = append(goldens, golden{"lockheld", lint.LockOrder})
	owned := map[string]bool{}
	for _, g := range goldens {
		owned[g.dir] = true
		for _, sub := range []string{"flagged", "clean"} {
			t.Run(g.dir+"/"+sub, func(t *testing.T) {
				linttest.Run(t, filepath.Join("testdata", g.dir, sub), g.a)
			})
		}
	}
	dirs, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !owned[d.Name()] {
			t.Errorf("testdata/%s belongs to no analyzer in lint.Analyzers()", d.Name())
		}
	}
}

// TestRequiresLockNeedsClass: a //repro:requires-lock naming no class,
// or one the package does not declare, is reported at the directive,
// also in a package that declares no lock class at all.
func TestRequiresLockNeedsClass(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\n//repro:requires-lock\nfunc missing() {}\n\n//repro:requires-lock shard\nfunc unknown() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, d := range diags {
		if !strings.Contains(d.Message, "//repro:requires-lock wants `<class>`") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
		lines = append(lines, d.Pos.Line)
	}
	if len(lines) != 2 || lines[0] != 3 || lines[1] != 6 {
		t.Errorf("diagnostics on lines %v, want [3 6]", lines)
	}
}

// TestRepositoryClean is the regression gate in test form: the full
// suite over the whole module must report nothing.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and checks the whole module")
	}
	pkgs, err := lint.Load("", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
