package solver

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/rng"
)

// TestFrontierDeltaOracle pins the invariant behind takeSlot's
// constant-time ΔW for newly discovered frontier nodes: after every take,
// each live frontier slot's ΔW bit-equals its value recomputed from
// scratch (see checkFrontier), and every neighbour of the group is on the
// frontier. It runs for every
// registered objective, for greedy growth, ΔW^α growth on both sampler
// backends and RGreedy's W(S∪{v}) growth, over whole graphs and over
// their extracted regions (power-law, where the ball is the component,
// and sparse ER, where it is genuinely compact).
//
// Growth without pruning to size j performs exactly the first j takes of
// a growth to size k from the same stream, so growing to each j in turn
// observes the state after every take without hooking the kernel.
func TestFrontierDeltaOracle(t *testing.T) {
	const k = 8
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", powerlawInstance(t, 600, 41)},
		{"er", erInstance(t, 400, 2.5, 42)},
	}
	modes := []struct {
		name   string
		useFen bool
		grow   func(ws *workspace, start graph.NodeID, r *rng.Stream)
	}{
		{"greedy", false, func(ws *workspace, start graph.NodeID, _ *rng.Stream) { ws.growGreedy(start) }},
		{"deltapow-linear", false, func(ws *workspace, start graph.NodeID, r *rng.Stream) {
			ws.growWeighted(start, r, weightDeltaPow, 0, false)
		}},
		{"deltapow-fenwick", true, func(ws *workspace, start graph.NodeID, r *rng.Stream) {
			ws.growWeighted(start, r, weightDeltaPow, 0, false)
		}},
		{"group", false, func(ws *workspace, start graph.NodeID, r *rng.Stream) {
			ws.growWeighted(start, r, weightGroup, 0, false)
		}},
	}
	for _, objName := range objective.Names() {
		for _, gc := range graphs {
			b := testBindAs(objName, gc.g)
			prep := NewPrep(b)
			_, _, edge, node := b.CSR()
			rb := graph.NewRegionBuilder(gc.g)
			for _, mode := range modes {
				ws := newWorkspace(gc.g.N())
				ws.configure(core.DefaultRequest(k), prep.topSums(k), mode.useFen)
				for i, start := range prep.Starts(6) {
					r := rb.Extract(start, k-1, gc.g.N(), edge, node)
					for _, sub := range []string{"graph", "region"} {
						local := start
						if sub == "graph" {
							ws.bindGraph(bindingSubstrate(b))
						} else {
							ws.bindRegion(r)
							local = r.LocalStart()
						}
						for j := 1; j <= k; j++ {
							ws.k = j
							mode.grow(ws, local, rng.New(uint64(i)+1))
							if err := checkFrontier(ws); err != nil {
								t.Fatalf("%s/%s/%s/%s start=%d after take %d: %v",
									objName, gc.name, mode.name, sub, start, len(ws.set), err)
							}
							if len(ws.set) < j {
								break // frontier exhausted: no further takes
							}
						}
					}
				}
			}
		}
	}
}

// checkFrontier verifies the frontier against from-scratch recomputation.
// Every neighbour of a group member must be in the group or on the
// frontier. Every frontier slot outside the group must carry the bits of
// its ΔW rebuilt from its own adjacency: Node[u] plus the entry at u for
// each member, added in the order the members were taken — the order the
// kernel adds them in. With one member neighbour that is exactly deltaOf,
// which adds in adjacency order; the kernel's first term for u is read at
// the member's side, so agreement also exercises the objective's
// bit-symmetry.
func checkFrontier(ws *workspace) error {
	for _, v := range ws.set {
		for _, u := range ws.sub.neighbors(v) {
			if !ws.inFront.Contains(int(u)) {
				return fmt.Errorf("neighbour %d of member %d is off the frontier", u, v)
			}
		}
	}
	for s, u := range ws.slots {
		if ws.inSet.Contains(int(u)) {
			continue
		}
		nbrs, w := ws.sub.edges(u)
		want, members := ws.sub.eta[u], 0
		for _, v := range ws.set {
			if p, ok := slices.BinarySearch(nbrs, v); ok {
				want += w[p]
				members++
			}
		}
		if members == 1 {
			if d := ws.deltaOf(u); math.Float64bits(want) != math.Float64bits(d) {
				return fmt.Errorf("slot %d (node %d): take-order ΔW %v, deltaOf %v", s, u, want, d)
			}
		}
		if got := ws.delta[s]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("slot %d (node %d, %d member neighbours): ΔW %v, from scratch %v",
				s, u, members, got, want)
		}
	}
	return nil
}
