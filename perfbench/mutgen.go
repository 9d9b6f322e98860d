package main

import (
	"maps"
	"slices"

	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/rng"
	"waso/internal/solver"
)

// topStarts is how many of the best-ranked nodes count as the current
// starts; it matches the default start budget of a solve.
const topStarts = 8

// mutGen generates valid PATCH batches against a graph as it evolves. It
// advances its own copy of the graph with graph.ApplyMutations and the
// ranking with Prep.Rescore, as wasod does, so half of every batch lands
// within k−1 hops of the top starts the solver itself picks, where it
// invalidates the ranking and the cached regions.
type mutGen struct {
	r      *rng.Stream
	radius int // k−1 of the solves the batches should disturb
	obj    objective.Objective
	g      *graph.Graph
	prep   *solver.Prep
	etaD   gen.Dist
}

func newMutGen(g *graph.Graph, r *rng.Stream, k int) *mutGen {
	obj := mustDefault()
	return &mutGen{
		r: r, radius: k - 1, obj: obj, g: g,
		prep: solver.NewPrep(objective.Bind(obj, g)),
		etaD: gen.DefaultScores().Eta,
	}
}

// ball returns the nodes within radius hops of start, in id order.
func (m *mutGen) ball(start graph.NodeID) []graph.NodeID {
	return slices.Sorted(maps.Keys(m.g.HopDistances([]graph.NodeID{start}, m.radius)))
}

// batch returns ops mutations, the first half on nodes near one of the
// current top starts and the rest on uniform nodes, and advances the graph
// past them. Kinds rotate at random among set_interest, add_edge and
// del_edge; no edge is touched twice in one batch, so every op is valid
// against the graph the previous batches leave.
func (m *mutGen) batch(ops int) ([]graph.MutationJSON, error) {
	starts := m.prep.Starts(topStarts)
	local := m.ball(starts[m.r.IntN(len(starts))])
	edited := map[[2]graph.NodeID]bool{}
	out := make([]graph.MutationJSON, 0, ops)
	for i := range ops {
		pick := func() graph.NodeID { return graph.NodeID(m.r.IntN(m.g.N())) }
		if i < ops/2 {
			pick = func() graph.NodeID { return local[m.r.IntN(len(local))] }
		}
		out = append(out, m.mutation(pick, edited))
	}
	muts, err := typedMutations(out)
	if err != nil {
		return nil, err
	}
	newG, touched, err := m.g.ApplyMutations(muts)
	if err != nil {
		return nil, err
	}
	m.prep = m.prep.Rescore(objective.Bind(m.obj, newG), touched)
	m.g = newG
	return out, nil
}

// mutation draws one op on a node from pick. An add_edge that finds no
// free partner, or a del_edge on a node without an unedited edge, falls
// back to set_interest.
func (m *mutGen) mutation(pick func() graph.NodeID, edited map[[2]graph.NodeID]bool) graph.MutationJSON {
	pair := func(u, v graph.NodeID) [2]graph.NodeID { return [2]graph.NodeID{min(u, v), max(u, v)} }
	u := pick()
	switch m.r.IntN(3) {
	case 1:
		for range 8 {
			v := pick()
			if v != u && !m.g.HasEdge(u, v) && !edited[pair(u, v)] {
				edited[pair(u, v)] = true
				tau := m.r.Float64()
				return graph.MutationJSON{Op: "add_edge", U: u, V: v, Tau: &tau}
			}
		}
	case 2:
		if nbrs := m.g.Neighbors(u); len(nbrs) > 0 {
			v := nbrs[m.r.IntN(len(nbrs))]
			if !edited[pair(u, v)] {
				edited[pair(u, v)] = true
				return graph.MutationJSON{Op: "del_edge", U: u, V: v}
			}
		}
	}
	eta := m.etaD.Sample(m.r)
	return graph.MutationJSON{Op: "set_interest", U: u, Eta: &eta}
}
