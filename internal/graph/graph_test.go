package graph

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// buildRef constructs the reference fixture used across tests:
//
//	η = [1 2 3 4 5]
//	edges: {0,1} τ=(0.5,0.25)  {1,2} τ=(1,2)  {0,2} τ=(0.1,0.2)  {3,4} τ=(0.3,0.7)
//
// Components: {0,1,2} and {3,4}.
func buildRef(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	for i, eta := range []float64{1, 2, 3, 4, 5} {
		b.SetInterest(NodeID(i), eta)
	}
	b.AddEdge(0, 1, 0.5, 0.25)
	b.AddEdge(1, 2, 1, 2)
	b.AddEdge(0, 2, 0.1, 0.2)
	b.AddEdge(3, 4, 0.3, 0.7)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Willingness scoring semantics (set value, marginal delta, bound score)
// now live in internal/objective; their reference tests moved to
// objective_test.go against the same fixture shape.

func TestConnected(t *testing.T) {
	g := buildRef(t)
	cases := []struct {
		set  []NodeID
		want bool
	}{
		{nil, true},
		{[]NodeID{3}, true},
		{[]NodeID{0, 1, 2}, true},
		{[]NodeID{0, 2}, true},
		{[]NodeID{3, 4}, true},
		{[]NodeID{0, 3}, false},
		{[]NodeID{0, 1, 4}, false},
	}
	for _, c := range cases {
		if got := g.Connected(c.set); got != c.want {
			t.Errorf("Connected(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

// TestUnsortedSets: Connected accepts sets in any order — the
// sorted-membership scan must sort its own copy when needed.
func TestUnsortedSets(t *testing.T) {
	g := buildRef(t)
	for _, set := range [][]NodeID{{2, 0, 1}, {1, 0}, {4, 3}, {2, 1, 0}} {
		input := append([]NodeID(nil), set...)
		sorted := append([]NodeID(nil), set...)
		for i := range sorted { // insertion sort; tiny fixed sets
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		if got, want := g.Connected(input), g.Connected(sorted); got != want {
			t.Errorf("Connected(%v) = %v, want %v (sorted order)", set, got, want)
		}
		// The caller's slice must come back untouched: the scan sorts a
		// copy, never the input.
		for i := range input {
			if input[i] != set[i] {
				t.Fatalf("input slice reordered: %v -> %v", set, input)
			}
		}
	}
	if g.Connected([]NodeID{4, 0}) {
		t.Error("Connected({4,0}) across components")
	}
}

func TestSubgraph(t *testing.T) {
	g := buildRef(t)
	sub, mapping := g.Subgraph([]NodeID{4, 0, 2, 0}) // duplicates collapse
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub.Validate: %v", err)
	}
	wantMap := []NodeID{0, 2, 4}
	if len(mapping) != len(wantMap) {
		t.Fatalf("mapping = %v, want %v", mapping, wantMap)
	}
	for i, v := range wantMap {
		if mapping[i] != v {
			t.Fatalf("mapping = %v, want %v", mapping, wantMap)
		}
	}
	if sub.N() != 3 || sub.M() != 1 {
		t.Fatalf("sub has N=%d M=%d, want N=3 M=1", sub.N(), sub.M())
	}
	for i, want := range []float64{1, 3, 5} {
		if got := sub.Interest(NodeID(i)); !almost(got, want) {
			t.Errorf("sub.Interest(%d) = %v, want %v", i, got, want)
		}
	}
	out, in, ok := sub.Tau(0, 1) // old edge {0,2}
	if !ok || !almost(out, 0.1) || !almost(in, 0.2) {
		t.Errorf("sub.Tau(0,1) = (%v,%v,%v), want (0.1,0.2,true)", out, in, ok)
	}
	if sub.Degree(2) != 0 {
		t.Errorf("old node 4 should be isolated in sub, degree %d", sub.Degree(2))
	}
}

func TestBuilderDuplicateEdgeMerging(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5, 0.25)
	b.AddEdge(1, 0, 0.75, 1.5) // reversed orientation: τ_{1,0} += 0.75, τ_{0,1} += 1.5
	b.AddArc(0, 1, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (duplicates must merge)", g.M())
	}
	out, in, ok := g.Tau(0, 1)
	if !ok || !almost(out, 0.5+1.5+0.5) || !almost(in, 0.25+0.75) {
		t.Errorf("Tau(0,1) = (%v,%v,%v), want (2.5,1,true)", out, in, ok)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 1, 1) // self-loop
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a self-loop")
	}
	b = NewBuilder(2)
	b.AddEdge(0, 5, 1, 1) // out of range
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted an out-of-range edge")
	}
	b = NewBuilder(2)
	b.SetInterest(0, math.NaN())
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a NaN interest score")
	}
}

// TestBuilderRejectsBadTau: a negative tightness would make the §3.1 bound
// inadmissible, so AddArc refuses it and Build reports the arc — even when
// a later positive duplicate would sum the edge back above 0. A fused
// weight that overflows is refused too.
func TestBuilderRejectsBadTau(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1, 1)
	b.AddEdge(1, 2, 0.5, -0.25)
	b.AddArc(2, 1, 1)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "AddArc(2,1)") || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Build error = %v, want negative tightness on AddArc(2,1)", err)
	}
	b = NewBuilder(2)
	b.AddEdgeSym(0, 1, math.Copysign(0, -1)) // −0 is not negative
	if _, err := b.Build(); err != nil {
		t.Errorf("Build rejected τ = −0: %v", err)
	}
	// Each arc is finite, but the fused τ_out+τ_in is not.
	b = NewBuilder(3)
	b.AddEdge(2, 1, math.MaxFloat64, math.MaxFloat64)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "tightness of edge {1,2} overflows") {
		t.Errorf("Build error = %v, want overflow on edge {1,2}", err)
	}
}

// TestCheckOnce: a passing check runs once per graph and key; a failing
// one is not remembered, and other keys and other graphs check afresh.
func TestCheckOnce(t *testing.T) {
	g, h := buildRef(t), buildRef(t)
	runs := 0
	pass := func() error { runs++; return nil }
	fail := func() error { runs++; return errors.New("bad") }
	for i := 0; i < 3; i++ {
		if err := g.CheckOnce("a", pass); err != nil {
			t.Fatal(err)
		}
		if err := g.CheckOnce("b", fail); err == nil {
			t.Fatal("failing check passed")
		}
	}
	if err := h.CheckOnce("a", pass); err != nil {
		t.Fatal(err)
	}
	if runs != 1+3+1 {
		t.Errorf("checks ran %d times, want 5 (a once per graph, b every call)", runs)
	}

	// Concurrent first calls may each run the check; all pass, and the
	// verdict is remembered afterwards.
	var wg sync.WaitGroup
	var concurrent atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.CheckOnce("c", func() error { concurrent.Add(1); return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	before := concurrent.Load()
	if err := g.CheckOnce("c", func() error { concurrent.Add(1); return nil }); err != nil || before < 1 || concurrent.Load() != before {
		t.Errorf("after %d concurrent checks: err %v, ran %d more", before, err, concurrent.Load()-before)
	}
}
