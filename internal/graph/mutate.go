package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// Graph mutation: the incremental-update vocabulary behind the durable
// store's WAL records and the serving layer's PATCH endpoint. A Graph stays
// immutable — ApplyMutations is copy-on-write, returning a NEW canonical
// Graph whose arrays are laid out exactly as a fresh Builder.Build of the
// mutated edge set would lay them out (sorted unique adjacency, same
// weights, same fused array). That canonical-form guarantee is what makes
// "solve against a mutated graph" bit-identical to "solve against a fresh
// upload of the same graph", and it is what the service's invariance suite
// asserts.
//
// Touched-node reporting: ApplyMutations also returns the sorted set of
// nodes whose local state changed — η edits, endpoints of inserted/deleted/
// re-weighted edges, and appended nodes. Only those nodes' NodeScores can
// differ in the new graph, so the serving layer uses the set to surgically
// refresh its per-graph caches (Prep ranking entries, (start, radius)
// region-cache keys whose ball reaches a touched node) instead of nuking
// per-graph state.

// MutOpKind enumerates the mutation operations.
type MutOpKind uint8

const (
	// MutSetInterest sets η of node U; U equal to the current node count
	// appends a new (edgeless) node with that interest score.
	MutSetInterest MutOpKind = iota + 1
	// MutAddEdge inserts the absent undirected edge {U, V} with directed
	// tightness τ_{U,V} = TauOut and τ_{V,U} = TauIn.
	MutAddEdge
	// MutDelEdge removes the existing edge {U, V}.
	MutDelEdge
	// MutSetTau re-weights the existing edge {U, V}: τ_{U,V} = TauOut,
	// τ_{V,U} = TauIn.
	MutSetTau
)

// String names the operation for errors and logs.
func (k MutOpKind) String() string {
	switch k {
	case MutSetInterest:
		return "set_interest"
	case MutAddEdge:
		return "add_edge"
	case MutDelEdge:
		return "del_edge"
	case MutSetTau:
		return "set_tau"
	}
	return fmt.Sprintf("MutOpKind(%d)", uint8(k))
}

// Mutation is one mutation operation. Fields beyond the opcode's own are
// ignored (and must be zero on the wire): Eta only serves MutSetInterest,
// TauOut/TauIn only MutAddEdge and MutSetTau.
type Mutation struct {
	Op     MutOpKind
	U, V   NodeID
	Eta    float64
	TauOut float64
	TauIn  float64
}

// ekey is the canonical undirected edge key (lo < hi).
type ekey struct{ lo, hi NodeID }

// canonical returns the key plus whether (U, V) arrived in (lo, hi) order.
func canonicalEdge(u, v NodeID) (ekey, bool) {
	if u < v {
		return ekey{u, v}, true
	}
	return ekey{v, u}, false
}

// estate tracks one edge across a batch: its state before the batch and
// its state as the ops so far leave it. out/in are τ_{lo,hi} and τ_{hi,lo}.
type estate struct {
	origExists      bool
	origOut, origIn float64
	exists          bool
	out, in         float64
}

// adjEdit is one pending adjacency entry for a node: neighbor plus the
// directed weights from that node's perspective.
type adjEdit struct {
	nbr     NodeID
	out, in float64
}

// rowEdit collects the adjacency changes of one node: inserts, deletions
// and re-weights, each sorted by neighbor id before the rebuild.
type rowEdit struct {
	adds []adjEdit
	dels []NodeID
	sets []adjEdit
}

// ApplyMutations validates and applies a batch of mutations, returning the
// mutated graph and the sorted set of touched nodes (nodes whose η,
// adjacency or incident weights changed — the only nodes whose NodeScore
// can differ). g itself is never modified: callers with in-flight readers
// of the old graph swap pointers at their own synchronization point.
//
// The batch is atomic: the first invalid operation fails the whole call
// and no partial state escapes. Within a batch, operations apply in order
// against the running state, so add → set → del of one edge is legal.
// The returned graph is canonical — byte-identical under Encode to a fresh
// Builder construction of the same node/edge set.
func (g *Graph) ApplyMutations(muts []Mutation) (*Graph, []NodeID, error) {
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("graph: empty mutation batch")
	}
	oldN := g.N()
	curN := oldN
	// Edge overlay: composed final state per touched edge, plus first-touch
	// order so every later pass iterates deterministically without ranging
	// a map.
	edges := make(map[ekey]*estate)
	keyOrder := make([]ekey, 0, len(muts))
	// Interest overlay: index < oldN overrides, index ≥ oldN appends.
	etaSet := make(map[NodeID]float64)
	etaOrder := make([]NodeID, 0)
	appended := make([]float64, 0)

	stateOf := func(u, v NodeID) (*estate, bool) {
		k, fwd := canonicalEdge(u, v)
		st := edges[k]
		if st == nil {
			st = &estate{}
			if int(k.hi) < oldN { // both endpoints pre-existing
				if out, in, ok := g.Tau(k.lo, k.hi); ok {
					st.origExists, st.origOut, st.origIn = true, out, in
					st.exists, st.out, st.in = true, out, in
				}
			}
			edges[k] = st
			keyOrder = append(keyOrder, k)
		}
		return st, fwd
	}

	for i, m := range muts {
		fail := func(format string, args ...any) (*Graph, []NodeID, error) {
			return nil, nil, fmt.Errorf("graph: mutation %d (%s): %s", i, m.Op, fmt.Sprintf(format, args...))
		}
		switch m.Op {
		case MutSetInterest:
			if math.IsNaN(m.Eta) || math.IsInf(m.Eta, 0) {
				return fail("non-finite interest score")
			}
			switch {
			case int(m.U) < 0 || int(m.U) > curN:
				return fail("node %d out of range [0,%d]", m.U, curN)
			case int(m.U) == curN:
				if curN >= math.MaxInt32 {
					return fail("node count limit reached")
				}
				appended = append(appended, m.Eta)
				curN++
			default:
				if _, seen := etaSet[m.U]; !seen {
					etaOrder = append(etaOrder, m.U)
				}
				if int(m.U) >= oldN {
					appended[int(m.U)-oldN] = m.Eta
				}
				etaSet[m.U] = m.Eta
			}
		case MutAddEdge, MutDelEdge, MutSetTau:
			if int(m.U) < 0 || int(m.U) >= curN || int(m.V) < 0 || int(m.V) >= curN {
				return fail("edge {%d,%d} out of range [0,%d)", m.U, m.V, curN)
			}
			if m.U == m.V {
				return fail("self-loop at node %d", m.U)
			}
			st, fwd := stateOf(m.U, m.V)
			switch m.Op {
			case MutDelEdge:
				if !st.exists {
					return fail("edge {%d,%d} does not exist", m.U, m.V)
				}
				st.exists, st.out, st.in = false, 0, 0
			default: // MutAddEdge, MutSetTau
				if math.IsNaN(m.TauOut) || math.IsInf(m.TauOut, 0) ||
					math.IsNaN(m.TauIn) || math.IsInf(m.TauIn, 0) {
					return fail("non-finite tightness")
				}
				if m.TauOut < 0 || m.TauIn < 0 {
					return fail("negative tightness on edge {%d,%d}", m.U, m.V)
				}
				if m.Op == MutAddEdge && st.exists {
					return fail("edge {%d,%d} already exists", m.U, m.V)
				}
				if m.Op == MutSetTau && !st.exists {
					return fail("edge {%d,%d} does not exist", m.U, m.V)
				}
				st.exists = true
				if fwd {
					st.out, st.in = m.TauOut, m.TauIn
				} else {
					st.out, st.in = m.TauIn, m.TauOut
				}
			}
		default:
			return fail("unknown opcode")
		}
	}

	// Reduce the edge overlay to per-node sorted edit lists. keyOrder keeps
	// this deterministic; no-op overlays (add → del, or set back to the
	// original weights) drop out here.
	rowEdits := make(map[NodeID]*rowEdit)
	editedNodes := make([]NodeID, 0, 2*len(keyOrder))
	editFor := func(v NodeID) *rowEdit {
		re := rowEdits[v]
		if re == nil {
			re = &rowEdit{}
			rowEdits[v] = re
			editedNodes = append(editedNodes, v)
		}
		return re
	}
	touched := make([]NodeID, 0, 2*len(keyOrder)+len(etaOrder)+len(appended))
	for _, k := range keyOrder {
		st := edges[k]
		switch {
		case st.origExists && !st.exists:
			editFor(k.lo).dels = append(rowEdits[k.lo].dels, k.hi)
			editFor(k.hi).dels = append(rowEdits[k.hi].dels, k.lo)
		case !st.origExists && st.exists:
			editFor(k.lo).adds = append(rowEdits[k.lo].adds, adjEdit{nbr: k.hi, out: st.out, in: st.in})
			editFor(k.hi).adds = append(rowEdits[k.hi].adds, adjEdit{nbr: k.lo, out: st.in, in: st.out})
		case st.origExists && (st.out != st.origOut || st.in != st.origIn):
			editFor(k.lo).sets = append(rowEdits[k.lo].sets, adjEdit{nbr: k.hi, out: st.out, in: st.in})
			editFor(k.hi).sets = append(rowEdits[k.hi].sets, adjEdit{nbr: k.lo, out: st.in, in: st.out})
		default:
			continue // batch-internal churn that lands back on the original
		}
		touched = append(touched, k.lo, k.hi)
	}
	for _, re := range editedNodesEdits(rowEdits, editedNodes) {
		slices.SortFunc(re.adds, func(a, b adjEdit) int { return int(a.nbr - b.nbr) })
		slices.Sort(re.dels)
		slices.SortFunc(re.sets, func(a, b adjEdit) int { return int(a.nbr - b.nbr) })
	}

	// New interest array: copy, apply overrides, append new nodes.
	interest := make([]float64, curN)
	copy(interest, g.interest)
	copy(interest[oldN:], appended)
	for _, v := range etaOrder {
		if int(v) < oldN && interest[v] != etaSet[v] {
			touched = append(touched, v)
		}
		interest[v] = etaSet[v]
	}
	for i := range appended {
		touched = append(touched, NodeID(oldN+i))
	}

	// Rebuild the CSR: unchanged rows copy wholesale, edited rows merge
	// their sorted edit lists against the old row.
	off := make([]int64, curN+1)
	for i := 0; i < curN; i++ {
		var d int64
		if i < oldN {
			d = g.off[i+1] - g.off[i]
		}
		if re := rowEdits[NodeID(i)]; re != nil {
			d += int64(len(re.adds) - len(re.dels))
		}
		off[i+1] = off[i] + d
	}
	total := off[curN]
	nbr := make([]NodeID, total)
	wOut := make([]float64, total)
	wIn := make([]float64, total)
	for i := 0; i < curN; i++ {
		p := off[i]
		re := rowEdits[NodeID(i)]
		if re == nil {
			if i < oldN {
				lo, hi := g.off[i], g.off[i+1]
				copy(nbr[p:], g.nbr[lo:hi])
				copy(wOut[p:], g.wOut[lo:hi])
				copy(wIn[p:], g.wIn[lo:hi])
			}
			continue
		}
		var oNbrs []NodeID
		var oOut, oIn []float64
		if i < oldN {
			oNbrs, oOut, oIn = g.Edges(NodeID(i))
		}
		pA, pD, pS := 0, 0, 0
		emit := func(n NodeID, out, in float64) {
			nbr[p], wOut[p], wIn[p] = n, out, in
			p++
		}
		for q, u := range oNbrs {
			for pA < len(re.adds) && re.adds[pA].nbr < u {
				emit(re.adds[pA].nbr, re.adds[pA].out, re.adds[pA].in)
				pA++
			}
			if pD < len(re.dels) && re.dels[pD] == u {
				pD++
				continue
			}
			if pS < len(re.sets) && re.sets[pS].nbr == u {
				emit(u, re.sets[pS].out, re.sets[pS].in)
				pS++
				continue
			}
			emit(u, oOut[q], oIn[q])
		}
		for ; pA < len(re.adds); pA++ {
			emit(re.adds[pA].nbr, re.adds[pA].out, re.adds[pA].in)
		}
	}

	g2 := &Graph{interest: interest, off: off, nbr: nbr, wOut: wOut, wIn: wIn}
	if err := g2.fuse(); err != nil {
		return nil, nil, err
	}
	slices.Sort(touched)
	return g2, dedupe(touched), nil
}

// editedNodesEdits resolves the edit structs for editedNodes in order —
// a tiny helper that keeps the sort pass iterating a slice, not a map.
func editedNodesEdits(rowEdits map[NodeID]*rowEdit, editedNodes []NodeID) []*rowEdit {
	out := make([]*rowEdit, len(editedNodes))
	for i, v := range editedNodes {
		out[i] = rowEdits[v]
	}
	return out
}

// ResidentBytes approximates the in-memory footprint of the graph's arrays
// (interest, offsets, adjacency, both directed weight arrays and the fused
// sum). Serving layers report it per resident graph.
func (g *Graph) ResidentBytes() int64 {
	return int64(len(g.interest))*8 + int64(len(g.off))*8 +
		int64(len(g.nbr))*4 + int64(len(g.wOut)+len(g.wIn)+len(g.wSum))*8
}

// ---------------------------------------------------------------------------
// Wire format

// MutationJSON is the wire shape of one mutation op, the element type of a
// PATCH /v1/graphs/{id} batch:
//
//	{"op": "set_interest", "u": 3, "eta": 1.5}
//	{"op": "add_edge", "u": 0, "v": 7, "tau": 1.0}
//	{"op": "add_edge", "u": 0, "v": 7, "tau_out": 0.3, "tau_in": 0.7}
//	{"op": "del_edge", "u": 0, "v": 7}
//	{"op": "set_tau",  "u": 0, "v": 7, "tau": 2.0}
//
// As in the edge-list upload format, "tau" sets both directions
// symmetrically and is mutually exclusive with "tau_out"/"tau_in" (a
// missing direction is 0). For add_edge with no tau field at all, the
// symmetric weight defaults to 1, matching EdgeListJSON.
type MutationJSON struct {
	Op     string   `json:"op"`
	U      NodeID   `json:"u"`
	V      NodeID   `json:"v,omitempty"`
	Eta    *float64 `json:"eta,omitempty"`
	Tau    *float64 `json:"tau,omitempty"`
	TauOut *float64 `json:"tau_out,omitempty"`
	TauIn  *float64 `json:"tau_in,omitempty"`
}

// Mutation converts the wire op into the typed form, rejecting unknown
// opcodes and field combinations that contradict the op.
func (m MutationJSON) Mutation() (Mutation, error) {
	tau := func(dflt float64) (out, in float64, err error) {
		if m.Tau != nil && (m.TauOut != nil || m.TauIn != nil) {
			return 0, 0, fmt.Errorf("graph: op sets both tau and tau_out/tau_in")
		}
		switch {
		case m.Tau != nil:
			return *m.Tau, *m.Tau, nil
		case m.TauOut != nil || m.TauIn != nil:
			if m.TauOut != nil {
				out = *m.TauOut
			}
			if m.TauIn != nil {
				in = *m.TauIn
			}
			return out, in, nil
		}
		return dflt, dflt, nil
	}
	switch m.Op {
	case "set_interest":
		if m.Eta == nil {
			return Mutation{}, fmt.Errorf("graph: set_interest without eta")
		}
		if m.Tau != nil || m.TauOut != nil || m.TauIn != nil {
			return Mutation{}, fmt.Errorf("graph: set_interest with tau fields")
		}
		return Mutation{Op: MutSetInterest, U: m.U, Eta: *m.Eta}, nil
	case "add_edge":
		out, in, err := tau(1)
		if err != nil {
			return Mutation{}, err
		}
		if m.Eta != nil {
			return Mutation{}, fmt.Errorf("graph: add_edge with eta")
		}
		return Mutation{Op: MutAddEdge, U: m.U, V: m.V, TauOut: out, TauIn: in}, nil
	case "del_edge":
		if m.Eta != nil || m.Tau != nil || m.TauOut != nil || m.TauIn != nil {
			return Mutation{}, fmt.Errorf("graph: del_edge with value fields")
		}
		return Mutation{Op: MutDelEdge, U: m.U, V: m.V}, nil
	case "set_tau":
		if m.Tau == nil && m.TauOut == nil && m.TauIn == nil {
			return Mutation{}, fmt.Errorf("graph: set_tau without tau fields")
		}
		out, in, err := tau(0)
		if err != nil {
			return Mutation{}, err
		}
		if m.Eta != nil {
			return Mutation{}, fmt.Errorf("graph: set_tau with eta")
		}
		return Mutation{Op: MutSetTau, U: m.U, V: m.V, TauOut: out, TauIn: in}, nil
	}
	return Mutation{}, fmt.Errorf("graph: unknown mutation op %q", m.Op)
}

// DecodeMutations decodes a JSON array of MutationJSON documents into typed
// mutations, rejecting unknown fields. The transport-side ingestion path
// for PATCH bodies.
func DecodeMutations(r io.Reader) ([]Mutation, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var docs []MutationJSON
	if err := dec.Decode(&docs); err != nil {
		return nil, fmt.Errorf("graph: mutation JSON: %w", err)
	}
	out := make([]Mutation, len(docs))
	for i, d := range docs {
		m, err := d.Mutation()
		if err != nil {
			return nil, fmt.Errorf("graph: mutation %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}
