// Package objective is the pluggable scoring layer between graph and
// solver. The graph stores topology and the raw per-node interest (η) and
// per-edge tightness (τ) scores; an Objective turns them into the two
// fused arrays the growth loops actually consume — one gain per node and
// one gain per adjacency entry — plus the search-budget plan for a given
// graph scale.
//
// The contract is fused-additive: for an objective with arrays (Node,
// Edge), the marginal gain of adding v to a partial group S is
//
//	Δ(v | S) = Node[v] + Σ_{u ∈ S ∩ N(v)} Edge[p(v,u)]
//
// and the value of a group F is Σ_{v∈F} Node[v] plus Σ Edge over the
// edges inside F, each undirected edge counted once. Edge values must be
// symmetric per undirected edge (the entry at v for u bit-equals the
// entry at u for v), nonnegative and finite, and Node values finite:
// under those conditions the §3.1 start-node bound — Bound(v) = Node[v] +
// Σ incident Edge — is admissible (Δ(v|S) ≤ Bound(v) for every S), so the
// solvers' shared-incumbent pruning and the CBAS phase-1 ranking carry
// over to every objective unchanged. The growth kernel relies on
// bit-symmetry too: a node u that first joins the frontier when its
// neighbour v is taken gets Δ = Node[u] + (entry at v for u) without a
// scan of its own adjacency, which equals the from-scratch Δ only if both
// entries of the edge carry the same bits. The graph guarantees the
// contract for its own fused slabs, which willingness aliases; Bind
// verifies it for arrays an objective computes.
//
// Objectives register themselves by name exactly like solvers
// (Register/New/Names); "willingness" is the extracted paper default and
// aliases the graph's own fused arrays, so solving it through the seam is
// bit-identical to the pre-seam code.
package objective

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"waso/internal/graph"
)

// Default names the objective a Request resolves to when it specifies
// none: the paper's willingness score (Eq. 1).
const Default = "willingness"

// Arrays is an objective's fused state over one graph: Node[i] is the
// standalone gain of node i, Edge[p] the extra gain when the adjacency
// entry p connects two group members. Edge is aligned with the graph's
// FusedCSR adjacency order (len == total adjacency entries, i.e. 2M) and
// must be symmetric per undirected edge and nonnegative; Node must be
// finite. Implementations may alias graph-internal storage (the
// willingness objective does) — callers treat both slices as read-only.
type Arrays struct {
	Edge []float64
	Node []float64
}

// Scale is the instance size an objective plans its search budget from:
// node and undirected-edge counts, mean degree, and the requested group
// size k.
type Scale struct {
	N, M   int
	AvgDeg float64
	K      int
}

// Plan is an objective's search-budget advice for one Scale. Zero fields
// mean "no opinion — keep the request's value": Starts/Samples override
// the request when positive (Samples only for sampling solvers),
// RegionCap replaces the solver's autoRegionCap heuristic when positive.
// Policy is a human-readable description of the applied plan, surfaced on
// Report.Policy so benchmark rows and API clients can see what budget
// actually ran. Plan must be a pure function of Scale — the solvers rely
// on that for worker-count invariance and the greedy-warm quality gate.
type Plan struct {
	Starts    int
	Samples   int
	RegionCap int
	Policy    string
}

// Objective is one scoring semantics over a social graph. Implementations
// must be stateless values: all per-graph state lives in the Binding, and
// Delta/Bound/Arrays/Plan must be deterministic (the wasolint determinism
// analyzer checks their result paths like solver code).
//
// Embed Additive to inherit the canonical fused-additive Delta/Bound and
// a no-opinion Plan; then an objective is just Name + Arrays.
type Objective interface {
	// Name is the registry key and wire identifier.
	Name() string
	// Arrays builds the fused per-node / per-entry gain arrays for g.
	Arrays(g *graph.Graph) Arrays
	// Delta returns the marginal gain of adding v to the set identified
	// by inSet. O(deg v).
	Delta(b *Binding, v graph.NodeID, inSet func(graph.NodeID) bool) float64
	// Bound returns an upper bound on Delta(v | S) over every S — the
	// CBAS phase-1 ranking score and pruning-table ingredient.
	Bound(b *Binding, v graph.NodeID) float64
	// Plan adapts the search budget to the instance scale.
	Plan(s Scale) Plan
}

// Binding is an objective evaluated over one graph: the graph's CSR
// topology plus the objective's fused arrays, in the exact substrate
// shape the solver workspaces consume. Bindings are immutable after Bind
// and safe for concurrent use.
type Binding struct {
	obj  Objective
	g    *graph.Graph
	off  []int64
	nbr  []graph.NodeID
	edge []float64
	node []float64
}

// Bind evaluates obj's arrays over g and verifies the contract. Panics if
// the objective returns misshapen arrays or breaks the contract — a
// programmer error in the objective, not an input error: the graph layer
// refuses non-finite scores and negative or overflowing tightness where
// data enters.
//
// Cost is the objective's Arrays plus at most one O(n+m) contract pass
// per graph and objective. Arrays that alias the graph's own fused slabs
// (willingness, budget) need none: the graph already guarantees them —
// finite η, finite τ ≥ 0 stored mirrored at both endpoints, and a finite
// τ_out+τ_in that is the same float sum at either end. Arrays an
// objective computes are checked the first time the objective is bound
// to g; g is immutable and Arrays deterministic, so later binds of the
// same objective name to g reuse the verdict.
func Bind(obj Objective, g *graph.Graph) *Binding {
	a := obj.Arrays(g)
	off, nbr, wSum, interest := g.FusedCSR()
	if len(a.Node) != g.N() || len(a.Edge) != len(nbr) {
		panic(fmt.Sprintf("objective: %s.Arrays returned %d node / %d edge values for a graph with %d nodes / %d adjacency entries",
			obj.Name(), len(a.Node), len(a.Edge), g.N(), len(nbr)))
	}
	if !sameSlab(a.Edge, wSum) || !sameSlab(a.Node, interest) {
		if err := g.CheckOnce(obj.Name(), func() error { return checkContract(off, nbr, a) }); err != nil {
			panic(fmt.Sprintf("objective: %s.Arrays %v", obj.Name(), err))
		}
	}
	return &Binding{obj: obj, g: g, off: off, nbr: nbr, edge: a.Edge, node: a.Node}
}

// sameSlab reports whether a is b: the same length over the same backing
// array.
func sameSlab(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkContract reports the first violation of the fused-additive
// contract: a non-finite Node value, or an Edge entry that is negative,
// non-finite or not bit-equal to its mirror entry. One pass in O(n+m):
// u's entries toward lower ids lead its sorted adjacency, and nodes are
// visited in ascending order, so a per-node cursor stands on the mirror
// entry of {v,u} exactly when v asks for it (the graph guarantees every
// edge is listed at both endpoints).
func checkContract(off []int64, nbr []graph.NodeID, a Arrays) error {
	for v, x := range a.Node {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("has non-finite Node[%d] = %v", v, x)
		}
	}
	n := len(a.Node)
	cursor := slices.Clone(off[:n])
	for v := 0; v < n; v++ {
		for p := off[v]; p < off[v+1]; p++ {
			u := nbr[p]
			if int(u) < v {
				continue // checked from u's side
			}
			e := a.Edge[p]
			if !(e >= 0) || math.IsInf(e, 1) {
				return fmt.Errorf("has Edge %v at {%d,%d}, want finite and >= 0", e, v, u)
			}
			q := cursor[u]
			cursor[u]++
			if math.Float64bits(a.Edge[q]) != math.Float64bits(e) {
				return fmt.Errorf("has asymmetric Edge at {%d,%d}: %v vs %v", v, u, e, a.Edge[q])
			}
		}
	}
	return nil
}

// Objective returns the bound objective.
func (b *Binding) Objective() Objective { return b.obj }

// Name returns the bound objective's registry name.
func (b *Binding) Name() string { return b.obj.Name() }

// Graph returns the bound graph.
func (b *Binding) Graph() *graph.Graph { return b.g }

// CSR exposes the binding's raw arrays in the same substrate shape as
// Graph.FusedCSR: offsets and neighbors alias the graph, edge and node
// are the objective's fused gains. All slices are read-only.
func (b *Binding) CSR() (off []int64, nbr []graph.NodeID, edge, node []float64) {
	return b.off, b.nbr, b.edge, b.node
}

// Score returns the objective's Bound for v — the ranking score Prep
// sorts start candidates by.
func (b *Binding) Score(v graph.NodeID) float64 { return b.obj.Bound(b, v) }

// Delta returns the objective's marginal gain of adding v to the set
// identified by inSet.
func (b *Binding) Delta(v graph.NodeID, inSet func(graph.NodeID) bool) float64 {
	return b.obj.Delta(b, v, inSet)
}

// Value evaluates the objective over a whole group under the
// fused-additive contract: Σ Node over members plus Σ Edge over in-set
// undirected edges, each counted once at its higher endpoint. Duplicate
// ids in set are a caller error. O(Σ_{v∈set} (deg v + |set|)).
func (b *Binding) Value(set []graph.NodeID) float64 {
	if len(set) == 0 {
		return 0
	}
	sorted := set
	if !slices.IsSorted(sorted) {
		sorted = append([]graph.NodeID(nil), set...)
		slices.Sort(sorted)
	}
	w := 0.0
	for _, v := range sorted {
		w += b.node[v]
		i := 0
		for p := b.off[v]; p < b.off[v+1]; p++ {
			u := b.nbr[p]
			if u >= v {
				break // adjacency is sorted: every in-set edge below counts once
			}
			for i < len(sorted) && sorted[i] < u {
				i++
			}
			if i == len(sorted) {
				break
			}
			if sorted[i] == u {
				w += b.edge[p]
			}
		}
	}
	return w
}

// Plan applies the objective's budget planning to the bound graph at
// group size k.
func (b *Binding) Plan(k int) Plan {
	return b.obj.Plan(Scale{N: b.g.N(), M: b.g.M(), AvgDeg: b.g.AvgDegree(), K: k})
}

// Additive supplies the canonical fused-additive Delta and Bound over a
// Binding's arrays, plus a no-opinion Plan. Embed it so an objective only
// has to define Name and Arrays (and optionally its own Plan).
type Additive struct{}

// Delta implements the fused-additive marginal gain: Node[v] plus the
// Edge entries toward in-set neighbors.
func (Additive) Delta(b *Binding, v graph.NodeID, inSet func(graph.NodeID) bool) float64 {
	d := b.node[v]
	for p := b.off[v]; p < b.off[v+1]; p++ {
		if inSet(b.nbr[p]) {
			d += b.edge[p]
		}
	}
	return d
}

// Bound implements the §3.1 admissible bound: Node[v] plus every incident
// Edge entry, accumulated in adjacency order (the same float order the
// pre-seam NodeScore used, keeping willingness rankings bit-identical).
func (Additive) Bound(b *Binding, v graph.NodeID) float64 {
	s := b.node[v]
	for p := b.off[v]; p < b.off[v+1]; p++ {
		s += b.edge[p]
	}
	return s
}

// Plan returns the zero Plan: no budget opinion.
func (Additive) Plan(Scale) Plan { return Plan{} }

// ErrUnknown is wrapped by New for unregistered names; transports map it
// to an invalid-request error.
var ErrUnknown = errors.New("objective: unknown objective")

var registry = map[string]Objective{}

// Register adds obj under obj.Name(). Objectives call it from init;
// duplicate names panic (a programmer error).
func Register(obj Objective) {
	name := obj.Name()
	if _, dup := registry[name]; dup {
		panic("objective: duplicate Register of " + name)
	}
	registry[name] = obj
}

// New returns the objective registered under name; "" resolves to
// Default. Unknown names return an error wrapping ErrUnknown that lists
// what exists.
func New(name string) (Objective, error) {
	if name == "" {
		name = Default
	}
	if obj, ok := registry[name]; ok {
		return obj, nil
	}
	return nil, fmt.Errorf("%w %q (have %s)", ErrUnknown, name, strings.Join(Names(), ", "))
}

// Names returns the registered objective names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered objectives in Names order.
func All() []Objective {
	objs := make([]Objective, 0, len(registry))
	for _, name := range Names() {
		objs = append(objs, registry[name])
	}
	return objs
}
