package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/rng"
	"waso/internal/solver"
)

// TestClosedLoopKeepsConnections checks that the transport reuses one
// connection per client instead of dialing per request.
func TestClosedLoopKeepsConnections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), clients)
	defer c.close()
	ops := make([]op, 200)
	for i := range ops {
		ops[i] = op{kind: opSolve, body: []byte("{}")}
	}
	t0 := time.Now()
	for i, r := range drive(httpDoer(c), ops, t0, t0.Add(time.Minute)) {
		if !r.ok() {
			t.Fatalf("op %d failed: %s", i, r.err)
		}
	}
	if d := c.dials.Load(); d > clients {
		t.Errorf("%d clients opened %d connections", clients, d)
	}
}

// TestMutGenBatchesApply checks that every generated batch is valid against
// the graph the previous batches leave, that the generator's top starts are
// the ones the solver ranks on that graph, and that half of each batch
// lands within k−1 hops of them.
func TestMutGenBatchesApply(t *testing.T) {
	g, err := gen.Spec{Kind: "er", N: 2000, AvgDeg: 8, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	mg := newMutGen(g, rng.New(9), k)
	var prev []graph.NodeID
	moved := 0
	for b := range 30 {
		starts := solver.NewPrep(objective.Bind(mustDefault(), g)).Starts(topStarts)
		if got := mg.prep.Starts(topStarts); !slices.Equal(got, starts) {
			t.Fatalf("batch %d: generator ranks %v on top, the solver %v", b, got, starts)
		}
		if prev != nil && !slices.Equal(prev, starts) {
			moved++
		}
		prev = slices.Clone(starts)
		near := g.HopDistances(starts, k-1)
		batch, err := mg.batch(16)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for i, m := range batch[:8] {
			if _, ok := near[m.U]; !ok {
				t.Errorf("batch %d op %d: node %d is not within %d hops of a top start", b, i, m.U, k-1)
			}
		}
		muts, err := typedMutations(batch)
		if err != nil {
			t.Fatal(err)
		}
		if g, _, err = g.ApplyMutations(muts); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if moved == 0 {
		t.Error("the top starts never changed; the batches do not reach the ranking")
	}
}
