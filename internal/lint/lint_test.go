package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestAnalyzers runs each analyzer over its golden testdata: a
// `flagged` package where every violation carries a // want comment,
// and a `clean` package where any finding is a false positive.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		dir      string
	}{
		{lint.NoAlloc, "noalloc"},
		{lint.UnsafeView, "unsafeview"},
		{lint.DigestFlow, "digestflow"},
		{lint.LockHeld, "lockheld"},
		{lint.FsyncOrder, "fsyncorder"},
		{lint.BoundedInput, "boundedinput"},
		{lint.LockOrder, "lockorder"},
	}
	for _, tc := range cases {
		for _, sub := range []string{"flagged", "clean"} {
			t.Run(tc.analyzer.Name+"/"+sub, func(t *testing.T) {
				linttest.Run(t, filepath.Join("testdata", tc.dir, sub), tc.analyzer)
			})
		}
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
