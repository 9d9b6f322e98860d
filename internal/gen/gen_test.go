package gen

import (
	"testing"

	"waso/internal/graph"
	"waso/internal/rng"
)

func TestDistSample(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		if v := Const(3.5).Sample(r); v != 3.5 {
			t.Fatalf("Const sample %v", v)
		}
		if v := Uniform(2, 5).Sample(r); v < 2 || v >= 5 {
			t.Fatalf("Uniform sample %v outside [2,5)", v)
		}
		if v := PowerLaw(2.5, 0.1).Sample(r); v < 0.1 {
			t.Fatalf("PowerLaw sample %v below xmin", v)
		}
		if v := Normal(1, 0.5).Sample(r); v < 0 {
			t.Fatalf("Normal sample %v negative", v)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(300, 0.03, DefaultScores(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.N() != 300 {
		t.Fatalf("N = %d", g.N())
	}
	// E[M] = p·n(n−1)/2 ≈ 1345; allow a wide deterministic-seed margin.
	if g.M() < 1000 || g.M() > 1700 {
		t.Errorf("M = %d, far from expectation ≈1345", g.M())
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		if g.Interest(v) < 0.1 {
			t.Fatalf("interest %v below power-law xmin", g.Interest(v))
		}
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	g, err := ErdosRenyi(50, 0, DefaultScores(), 1)
	if err != nil || g.M() != 0 {
		t.Fatalf("p=0: M=%d err=%v", g.M(), err)
	}
	g, err = ErdosRenyi(30, 1, DefaultScores(), 1)
	if err != nil || g.M() != 30*29/2 {
		t.Fatalf("p=1: M=%d err=%v, want complete graph", g.M(), err)
	}
	if _, err := ErdosRenyi(10, 1.5, DefaultScores(), 1); err == nil {
		t.Error("p=1.5 accepted")
	}
	if _, err := ErdosRenyi(-1, 0.5, DefaultScores(), 1); err == nil {
		t.Error("negative n accepted")
	}
	g, err = ErdosRenyi(0, 0.5, DefaultScores(), 1)
	if err != nil || g.N() != 0 {
		t.Fatalf("n=0: %v", err)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	const n, m = 200, 3
	g, err := PreferentialAttachment(n, m, DefaultScores(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Seed ring of m+1 nodes has m+1 edges; every later node adds m edges.
	wantM := (m + 1) + (n-(m+1))*m
	if g.M() != wantM {
		t.Errorf("M = %d, want %d", g.M(), wantM)
	}
	all := make([]graph.NodeID, n)
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	if !g.Connected(all) {
		t.Error("preferential-attachment graph must be connected")
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if g.Degree(v) < m {
			t.Errorf("node %d has degree %d < m", v, g.Degree(v))
		}
	}
	// Preferential attachment must produce hubs well above the minimum.
	maxDeg := 0
	for v := graph.NodeID(0); int(v) < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 4*m {
		t.Errorf("max degree %d suspiciously small for a power-law graph", maxDeg)
	}
	if _, err := PreferentialAttachment(10, 0, DefaultScores(), 1); err == nil {
		t.Error("m=0 accepted")
	}
}

// fingerprint reduces a graph to one number (Σ η + Σ fused edge weight, the
// whole-graph willingness) for cheap equality probes.
func fingerprint(g *graph.Graph) float64 {
	total := 0.0
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		total += g.Interest(v)
		_, w := g.FusedEdges(v)
		for _, x := range w {
			total += x / 2 // each undirected edge appears twice
		}
	}
	return total
}

func TestDeterminism(t *testing.T) {
	a, err := PreferentialAttachment(150, 2, DefaultScores(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PreferentialAttachment(150, 2, DefaultScores(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() || fingerprint(a) != fingerprint(b) {
		t.Error("same seed produced different PA graphs")
	}
	c, err := PreferentialAttachment(150, 2, DefaultScores(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) == fingerprint(c) {
		t.Error("different seeds produced identical PA graphs")
	}

	d, err := ErdosRenyi(150, 0.05, DefaultScores(), 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ErdosRenyi(150, 0.05, DefaultScores(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != e.M() || fingerprint(d) != fingerprint(e) {
		t.Error("same seed produced different ER graphs")
	}
}
