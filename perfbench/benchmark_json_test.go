package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSON checks BENCHMARK.json against this program: every
// name is legal, every workload is implemented, and setup_s carries
// the largest bound.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, u, better string) {
		if !validName(name) || seen[name] {
			t.Errorf("metric name %q is illegal or repeated", name)
		}
		seen[name] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: illegal unit %q", name, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	var setupBound, maxBound float64
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound (%v < %v)", setupBound, maxBound)
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if len(doc.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		known := false
		for _, p := range workloads {
			known = known || p.name == w.Name
		}
		if !known || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown to the program, or its why has %d characters", w.Name, len(w.Why))
		}
	}
}
