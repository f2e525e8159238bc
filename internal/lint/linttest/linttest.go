// Package linttest runs lint analyzers over golden testdata directories
// and checks the findings against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (which the repository
// cannot depend on).
//
// A want comment annotates the line it appears on:
//
//	m := make([]byte, n) // want `make allocates`
//
// Each backquoted (or double-quoted) string is a regexp that must match
// the message of exactly one diagnostic reported on that line by the
// analyzers under test; diagnostics with no matching want, and wants
// with no matching diagnostic, fail the test. A clean package is simply
// one with no want comments — any finding fails it.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads dir as a single package, runs the analyzers over it, and
// compares the diagnostics against the package's // want comments.
func Run(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	diags, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}
	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on (file, line) whose regexp
// matches msg.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants extracts // want comments from the package's files.
func collectWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitWant(text)
				if err != nil {
					t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, pat := range patterns {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

// splitWant parses the sequence of quoted regexps after "// want".
func splitWant(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` quote")
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// strconv.Unquote needs the full quoted token.
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return nil, fmt.Errorf(`unterminated " quote`)
			}
			uq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, uq)
			s = strings.TrimSpace(s[end+1:])
		default:
			return nil, fmt.Errorf("expected quoted regexp at %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns")
	}
	return out, nil
}
