package graph

import (
	"fmt"
	"math"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are merged by summing their tightness contributions —
// the additive semantics the couple-merge scenario (§2.2) relies on.
type Builder struct {
	n        int
	interest []float64
	src      []NodeID
	dst      []NodeID
	tau      []float64 // directed weight src->dst
	err      error
}

// NewBuilder returns a Builder for a graph of n nodes with all interest
// scores zero.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, interest: make([]float64, n)}
}

// N reports the node count.
func (b *Builder) N() int { return b.n }

// SetInterest assigns η_i. Records an error for out-of-range or non-finite
// input; the error surfaces at Build.
func (b *Builder) SetInterest(i NodeID, eta float64) {
	if b.err != nil {
		return
	}
	if int(i) < 0 || int(i) >= b.n {
		b.err = fmt.Errorf("graph: SetInterest node %d out of range [0,%d)", i, b.n)
		return
	}
	if math.IsNaN(eta) || math.IsInf(eta, 0) {
		b.err = fmt.Errorf("graph: SetInterest(%d) with non-finite score", i)
		return
	}
	b.interest[i] = eta
}

// AddEdge adds the undirected edge {i, j} with directed tightness
// τ_{i,j} = tauIJ and τ_{j,i} = tauJI. Adding the same edge again sums the
// weights.
func (b *Builder) AddEdge(i, j NodeID, tauIJ, tauJI float64) {
	b.AddArc(i, j, tauIJ)
	b.AddArc(j, i, tauJI)
}

// AddEdgeSym adds {i, j} with symmetric tightness τ on both directions.
func (b *Builder) AddEdgeSym(i, j NodeID, tau float64) {
	b.AddEdge(i, j, tau, tau)
}

// AddArc records the single directed tightness contribution τ_{i,j}, which
// must be finite and ≥ 0 (the §3.1 pruning bound is only admissible over
// nonnegative edge gains). The reverse direction defaults to 0 unless also
// added. Both directions of an edge exist in the built graph as soon as
// either arc is added.
func (b *Builder) AddArc(i, j NodeID, tau float64) {
	if b.err != nil {
		return
	}
	if int(i) < 0 || int(i) >= b.n || int(j) < 0 || int(j) >= b.n {
		b.err = fmt.Errorf("graph: AddArc(%d,%d) out of range [0,%d)", i, j, b.n)
		return
	}
	if i == j {
		b.err = fmt.Errorf("graph: self-loop at node %d", i)
		return
	}
	if math.IsNaN(tau) || math.IsInf(tau, 0) {
		b.err = fmt.Errorf("graph: AddArc(%d,%d) with non-finite tightness", i, j)
		return
	}
	if tau < 0 {
		b.err = fmt.Errorf("graph: AddArc(%d,%d) with negative tightness %v", i, j, tau)
		return
	}
	b.src = append(b.src, i)
	b.dst = append(b.dst, j)
	b.tau = append(b.tau, tau)
}

// Build assembles the CSR graph. Returns the first recorded error, if any.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Canonical undirected edge key (min, max); accumulate both directions.
	type key struct{ lo, hi NodeID }
	type pair struct{ loHi, hiLo float64 } // τ_{lo,hi}, τ_{hi,lo}
	edges := make(map[key]*pair, len(b.src)/2)
	for p := range b.src {
		i, j, t := b.src[p], b.dst[p], b.tau[p]
		k := key{i, j}
		forward := true
		if j < i {
			k = key{j, i}
			forward = false
		}
		e := edges[k]
		if e == nil {
			e = &pair{}
			edges[k] = e
		}
		if forward {
			e.loHi += t
		} else {
			e.hiLo += t
		}
	}
	keys := make([]key, 0, len(edges))
	//lint:allow determinism(key collection only; keys are sorted below before any layout depends on order)
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, c int) bool {
		if keys[a].lo != keys[c].lo {
			return keys[a].lo < keys[c].lo
		}
		return keys[a].hi < keys[c].hi
	})

	deg := make([]int64, b.n+1)
	for _, k := range keys {
		deg[k.lo+1]++
		deg[k.hi+1]++
	}
	off := make([]int64, b.n+1)
	for i := 1; i <= b.n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	total := off[b.n]
	nbr := make([]NodeID, total)
	wOut := make([]float64, total)
	wIn := make([]float64, total)
	cursor := make([]int64, b.n)
	copy(cursor, off[:b.n])
	place := func(i, j NodeID, out, in float64) {
		p := cursor[i]
		cursor[i]++
		nbr[p], wOut[p], wIn[p] = j, out, in
	}
	for _, k := range keys {
		e := edges[k]
		place(k.lo, k.hi, e.loHi, e.hiLo)
		place(k.hi, k.lo, e.hiLo, e.loHi)
	}
	// Adjacency of each node lists lo-partners first (sorted by construction
	// order over sorted keys) then hi-partners; a final per-node sort makes
	// it fully ordered.
	g := &Graph{
		interest: append([]float64(nil), b.interest...),
		off:      off,
		nbr:      nbr,
		wOut:     wOut,
		wIn:      wIn,
	}
	for i := 0; i < b.n; i++ {
		lo, hi := off[i], off[i+1]
		sortAdj(nbr[lo:hi], wOut[lo:hi], wIn[lo:hi])
	}
	if err := g.fuse(); err != nil {
		return nil, err
	}
	return g, nil
}

// sortAdj sorts the three parallel slices by neighbor id.
func sortAdj(nbr []NodeID, wOut, wIn []float64) {
	idx := make([]int, len(nbr))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return nbr[idx[a]] < nbr[idx[b]] })
	n2 := make([]NodeID, len(nbr))
	o2 := make([]float64, len(nbr))
	i2 := make([]float64, len(nbr))
	for pos, p := range idx {
		n2[pos], o2[pos], i2[pos] = nbr[p], wOut[p], wIn[p]
	}
	copy(nbr, n2)
	copy(wOut, o2)
	copy(wIn, i2)
}

// FromEdgeList builds a symmetric-weight graph directly from an edge list;
// convenience for tests and generators.
func FromEdgeList(n int, interest []float64, edges [][2]NodeID, tau []float64) (*Graph, error) {
	b := NewBuilder(n)
	for i, eta := range interest {
		b.SetInterest(NodeID(i), eta)
	}
	for p, e := range edges {
		t := 1.0
		if tau != nil {
			t = tau[p]
		}
		b.AddEdgeSym(e[0], e[1], t)
	}
	return b.Build()
}
