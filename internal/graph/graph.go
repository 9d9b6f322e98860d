// Package graph implements the social-graph substrate of WASO: a compact
// CSR (compressed sparse row) adjacency structure carrying one interest
// score η_i per node and a pair of directed social-tightness scores
// (τ_{i,j}, τ_{j,i}) per undirected edge.
//
// The paper's willingness objective (Eq. 1)
//
//	W(F) = Σ_{v_i∈F} ( η_i + Σ_{v_j∈F : e_{i,j}∈E} τ_{i,j} )
//
// sums τ in both directions because tightness is not necessarily symmetric
// (§2.1). To make the marginal gain ΔW(v | S) computable in a single
// O(deg v) scan, each endpoint's adjacency entry stores both the outgoing
// weight τ_{i,j} and the incoming weight τ_{j,i}.
//
// The willingness hot paths only ever consume the sum τ_{i,j} + τ_{j,i},
// so the graph additionally carries a fused weight array
// wSum[p] = wOut[p] + wIn[p], derived once at construction: reading one
// float64 per adjacency entry instead of two halves the memory traffic of
// the growth inner loops. The directed arrays remain the source of truth
// for Tau and the codec.
//
// Scoring semantics live one layer up, in internal/objective: the graph
// stores raw η/τ and exposes them (Interest, Edges, FusedCSR), an
// Objective turns them into the fused per-node / per-entry gain arrays
// the solvers consume. The graph's own fused wSum/interest arrays are
// exactly the willingness objective's arrays, aliased zero-copy.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node; nodes are dense integers in [0, N).
type NodeID = int32

// Graph is an immutable social graph. Construct with a Builder.
type Graph struct {
	interest []float64 // η per node
	off      []int64   // CSR offsets, len N+1
	nbr      []NodeID  // neighbor ids, sorted per node
	wOut     []float64 // τ_{i, nbr[p]} for p in [off[i], off[i+1])
	wIn      []float64 // τ_{nbr[p], i}
	wSum     []float64 // wOut[p] + wIn[p], the fused hot-path weight

	checked sync.Map // CheckOnce keys whose check passed on this graph
}

// CheckOnce runs check the first time it is called with key on this graph
// and remembers a pass, so later calls with that key return nil at once;
// a failure is not remembered. It suits checks of data that is a pure
// function of the immutable graph and the key: objective.Bind keys its
// contract check by objective name, so per-request binds pay it once per
// graph.
func (g *Graph) CheckOnce(key string, check func() error) error {
	if _, ok := g.checked.Load(key); ok {
		return nil
	}
	if err := check(); err != nil {
		return err
	}
	g.checked.Store(key, struct{}{})
	return nil
}

// fuse (re)derives the fused weight array from the directed weights. Every
// construction path (Builder.Build, ApplyMutations, codec Decode) calls it
// exactly once. It fails when a sum overflows: every τ is finite, but two
// large ones (or merged duplicate arcs) can add up to +Inf, and the fused
// slab must stay finite because objectives alias it as their Edge array.
func (g *Graph) fuse() error {
	wSum := make([]float64, len(g.nbr))
	wOut, wIn := g.wOut[:len(wSum)], g.wIn[:len(wSum)]
	for p := range wSum {
		s := wOut[p] + wIn[p]
		if math.IsInf(s, 0) {
			v := sort.Search(g.N(), func(i int) bool { return g.off[i+1] > int64(p) })
			return fmt.Errorf("graph: tightness of edge {%d,%d} overflows", v, g.nbr[p])
		}
		wSum[p] = s
	}
	g.wSum = wSum
	return nil
}

// N returns the node count.
func (g *Graph) N() int { return len(g.interest) }

// M returns the undirected edge count.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// Interest returns η_i.
func (g *Graph) Interest(i NodeID) float64 { return g.interest[i] }

// Degree returns the number of neighbors of i.
func (g *Graph) Degree(i NodeID) int { return int(g.off[i+1] - g.off[i]) }

// AvgDegree returns 2M/N, the mean undirected degree.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(len(g.nbr)) / float64(g.N())
}

// Neighbors returns the sorted neighbor ids of i. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(i NodeID) []NodeID {
	return g.nbr[g.off[i]:g.off[i+1]]
}

// Edges returns parallel slices (neighbors, τ_out, τ_in) for node i, where
// τ_out[p] = τ_{i, nbrs[p]} and τ_in[p] = τ_{nbrs[p], i}. The slices alias
// internal storage.
func (g *Graph) Edges(i NodeID) (nbrs []NodeID, tauOut, tauIn []float64) {
	lo, hi := g.off[i], g.off[i+1]
	return g.nbr[lo:hi], g.wOut[lo:hi], g.wIn[lo:hi]
}

// FusedEdges returns parallel slices (neighbors, τ_{i,·}+τ_{·,i}) for node
// i — the single-array view the solver growth loops read. The slices alias
// internal storage.
func (g *Graph) FusedEdges(i NodeID) (nbrs []NodeID, wSum []float64) {
	lo, hi := g.off[i], g.off[i+1]
	return g.nbr[lo:hi], g.wSum[lo:hi]
}

// FusedCSR exposes the raw CSR arrays (offsets, neighbors, fused weights,
// interest scores) so the solver can treat a whole graph and a Region
// through one substrate shape. All slices alias internal storage and must
// not be modified.
func (g *Graph) FusedCSR() (off []int64, nbr []NodeID, wSum, interest []float64) {
	return g.off, g.nbr, g.wSum, g.interest
}

// Tau returns (τ_{i,j}, τ_{j,i}, true) if the edge {i,j} exists.
func (g *Graph) Tau(i, j NodeID) (out, in float64, ok bool) {
	lo, hi := g.off[i], g.off[i+1]
	nbrs := g.nbr[lo:hi]
	p := sort.Search(len(nbrs), func(p int) bool { return nbrs[p] >= j })
	if p < len(nbrs) && nbrs[p] == j {
		return g.wOut[lo+int64(p)], g.wIn[lo+int64(p)], true
	}
	return 0, 0, false
}

// HasEdge reports whether {i, j} is an edge.
func (g *Graph) HasEdge(i, j NodeID) bool {
	_, _, ok := g.Tau(i, j)
	return ok
}

// sortedSet returns set in ascending order, copying only when the input is
// unsorted. Solutions arrive canonical (ascending), so the stat paths that
// call Connected per row normally allocate nothing here.
func sortedSet(set []NodeID) []NodeID {
	if slices.IsSorted(set) {
		return set
	}
	sorted := append([]NodeID(nil), set...)
	slices.Sort(sorted)
	return sorted
}

// Connected reports whether the subgraph induced by set is connected.
// The empty set is connected by convention. Membership is resolved by
// merge-scanning the (sorted) set against each adjacency list, so the only
// allocations are the O(|set|) visit bookkeeping — no per-call maps.
func (g *Graph) Connected(set []NodeID) bool {
	if len(set) <= 1 {
		return true
	}
	sorted := sortedSet(set)
	visited := make([]bool, len(sorted))
	stack := make([]int, 1, len(sorted)) // indices into sorted
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		vi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nbrs := g.Neighbors(sorted[vi])
		i := 0
		for _, u := range nbrs {
			for i < len(sorted) && sorted[i] < u {
				i++
			}
			if i == len(sorted) {
				break
			}
			if sorted[i] == u && !visited[i] {
				visited[i] = true
				count++
				stack = append(stack, i)
			}
		}
	}
	return count == len(sorted)
}

// Subgraph returns the graph induced on keep (deduplicated), along with the
// mapping newID -> oldID. Node p in the result corresponds to mapping[p] in
// g. Scores are carried over.
func (g *Graph) Subgraph(keep []NodeID) (*Graph, []NodeID) {
	uniq := append([]NodeID(nil), keep...)
	sort.Slice(uniq, func(a, b int) bool { return uniq[a] < uniq[b] })
	uniq = dedupe(uniq)
	remap := make(map[NodeID]NodeID, len(uniq))
	for newID, oldID := range uniq {
		remap[oldID] = NodeID(newID)
	}
	b := NewBuilder(len(uniq))
	for newID, oldID := range uniq {
		b.SetInterest(NodeID(newID), g.interest[oldID])
	}
	for newID, oldID := range uniq {
		nbrs, tauOut, tauIn := g.Edges(oldID)
		for p, u := range nbrs {
			nu, ok := remap[u]
			if !ok || u < oldID {
				continue // keep each undirected edge once
			}
			b.AddEdge(NodeID(newID), nu, tauOut[p], tauIn[p])
		}
	}
	sub, err := b.Build()
	if err != nil {
		panic("graph: Subgraph rebuild failed: " + err.Error()) // unreachable: inputs come from a valid graph
	}
	return sub, uniq
}

// Validate checks structural invariants: sorted unique adjacency, symmetric
// edge presence, mirrored weights, finite scores and nonnegative
// tightness. Intended for tests and for data loaded from external files.
func (g *Graph) Validate() error {
	n := NodeID(g.N())
	if len(g.off) != g.N()+1 || g.off[0] != 0 || g.off[g.N()] != int64(len(g.nbr)) {
		return fmt.Errorf("graph: malformed offsets")
	}
	if len(g.wOut) != len(g.nbr) || len(g.wIn) != len(g.nbr) {
		return fmt.Errorf("graph: weight arrays mismatch adjacency")
	}
	for _, eta := range g.interest {
		if math.IsNaN(eta) || math.IsInf(eta, 0) {
			return fmt.Errorf("graph: non-finite interest score")
		}
	}
	for i := NodeID(0); i < n; i++ {
		nbrs, tauOut, tauIn := g.Edges(i)
		for p, u := range nbrs {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: neighbor %d of node %d out of range", u, i)
			}
			if u == i {
				return fmt.Errorf("graph: self-loop at node %d", i)
			}
			if p > 0 && nbrs[p-1] >= u {
				return fmt.Errorf("graph: adjacency of node %d not sorted/unique", i)
			}
			if math.IsNaN(tauOut[p]) || math.IsInf(tauOut[p], 0) || math.IsNaN(tauIn[p]) || math.IsInf(tauIn[p], 0) {
				return fmt.Errorf("graph: non-finite tightness on edge {%d,%d}", i, u)
			}
			if tauOut[p] < 0 || tauIn[p] < 0 {
				return fmt.Errorf("graph: negative tightness on edge {%d,%d}", i, u)
			}
			ro, ri, ok := g.Tau(u, i)
			if !ok {
				return fmt.Errorf("graph: edge {%d,%d} not mirrored", i, u)
			}
			if ro != tauIn[p] || ri != tauOut[p] {
				return fmt.Errorf("graph: weights of edge {%d,%d} not mirrored", i, u)
			}
		}
	}
	return nil
}

func dedupe(sorted []NodeID) []NodeID {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}
