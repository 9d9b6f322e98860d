package solver

import (
	"math"
	"slices"

	"waso/internal/bitset"
	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/rng"
	"waso/internal/sampling"
)

// substrate is the uniform fused-CSR view a workspace grows over: either a
// whole graph under one objective (an objective.Binding, zero-copy
// aliases) or one start's compact graph.Region. Growth code indexes only
// these four arrays — the objective's semantics are entirely baked into
// the two gain slabs, so the hot loops stay interface-call-free — and
// switching a worker between a region task and a whole-graph task is four
// slice-header assignments.
type substrate struct {
	off []int64
	nbr []graph.NodeID
	w   []float64 // fused per-entry gain (τ_out+τ_in for willingness)
	eta []float64 // per-node gain (η for willingness)
}

// neighbors returns the sorted adjacency of v.
func (s substrate) neighbors(v graph.NodeID) []graph.NodeID {
	return s.nbr[s.off[v]:s.off[v+1]]
}

// edges returns the adjacency of v with the fused weights.
func (s substrate) edges(v graph.NodeID) ([]graph.NodeID, []float64) {
	lo, hi := s.off[v], s.off[v+1]
	return s.nbr[lo:hi], s.w[lo:hi]
}

// bindingSubstrate is the whole-graph view under one objective: topology
// from the graph, gains from the binding's fused arrays.
func bindingSubstrate(b *objective.Binding) substrate {
	off, nbr, w, eta := b.CSR()
	return substrate{off: off, nbr: nbr, w: w, eta: eta}
}

// regionSubstrate is the compact per-start view.
func regionSubstrate(r *graph.Region) substrate {
	off, nbr, w, eta := r.CSR()
	return substrate{off: off, nbr: nbr, w: w, eta: eta}
}

// workspace holds the per-task scratch state for growing connected
// groups. The id-space-sized structures are allocated once for a fixed
// capacity (newWorkspace) and recycled across requests through a
// WorkspacePool; the request-sized parameters (k, alpha, sampler backend,
// pruning table) are set per Solve by configure; and the active substrate
// (whole graph or one start's region, any node count ≤ capacity) is
// switched per task by bind. All per-growth state is reset sparsely
// between samples (bitset.ClearList, bulk Fenwick Reset), so a sample
// costs O(k · deg) rather than O(n).
type workspace struct {
	capacity int
	sub      substrate
	toGlobal []graph.NodeID // region local→global ids; nil on the whole graph

	k      int
	topSum []float64  // topSum[r] = sum of the r largest bound scores in V
	inc    *incumbent // shared cross-start lower bound for pruning

	inSet   *bitset.Set    // membership of the growing group
	inFront *bitset.Set    // membership of the frontier (ever this growth)
	set     []graph.NodeID // group in insertion order
	touched []graph.NodeID // every node ever added to the frontier
	will    float64        // W(set), maintained incrementally

	// Uniform mode: active frontier as a swap-remove pool.
	pool []graph.NodeID

	// Weighted mode: append-only frontier slots with incremental ΔW.
	slots  []graph.NodeID // slot -> node
	slotOf []int32        // node -> slot (valid while inFront)
	delta  []float64      // slot -> ΔW(node | set)

	// Linear ΔW^α draws: cached slot weights plus a running total, updated
	// only when a slot's ΔW changes (exactly like the Fenwick weights), so
	// a draw is a single prefix scan with no powWeight recomputation.
	wLin      []float64
	wTotal    float64
	linActive bool // cached linear weights are live for this growth

	weight []float64 // scratch for step-dependent W(S∪{v}) draws (RGreedy)

	// Greedy mode: lazy max-heap over frontier slots ordered by
	// (ΔW descending, node id ascending). Entries go stale when a slot's
	// ΔW changes or the slot is taken; pops skip them.
	heap       []heapEntry
	heapActive bool // heap maintenance is live for this growth

	fen       *sampling.Fenwick // lazily used Fenwick sampler over slots
	useFen    bool              // backend decision for this request
	fenActive bool              // Fenwick weights are live for this growth
	alpha     float64           // CBASND exponent for Fenwick weight updates
}

// heapEntry is one lazy max-heap element: the ΔW and node of a frontier
// slot at push time. Stale once ws.delta[slot] moves past d.
type heapEntry struct {
	d    float64
	v    graph.NodeID
	slot int32
}

// newWorkspace allocates scratch state able to grow over any substrate of
// at most capacity nodes. The result is unusable until configure sets the
// request parameters and bind selects a substrate. When every start of a
// solve has a region, capacity is the largest region — O(region), not
// O(n) — which is what keeps uncached region solves allocation-light.
func newWorkspace(capacity int) *workspace {
	return &workspace{
		capacity: capacity,
		inc:      newIncumbent(),
		inSet:    bitset.New(capacity),
		inFront:  bitset.New(capacity),
		slotOf:   make([]int32, capacity),
	}
}

// configure (re)parameterizes the workspace for one request: group-size
// bound, pruning table, CBASND exponent, and sampler backend. topSum is
// the shared read-only pruning-bound table from Prep.topSums; useFen is
// decided once per solve from the whole graph's statistics so region and
// whole-graph growths consume the random stream identically. Cheap —
// scalars plus at most one lazy Fenwick allocation — so pooled workspaces
// are reconfigured per request.
func (ws *workspace) configure(req core.Request, topSum []float64, useFen bool) {
	ws.k = req.K
	ws.topSum = topSum
	ws.alpha = req.Alpha
	ws.useFen = useFen
	if ws.useFen && ws.fen == nil {
		ws.fen = sampling.NewFenwick(ws.capacity)
	}
}

// bindGraph points the workspace at the whole graph.
func (ws *workspace) bindGraph(sub substrate) {
	ws.sub = sub
	ws.toGlobal = nil
}

// bindRegion points the workspace at one start's compact region; grown
// solutions are translated back to global ids by snapshot. The region must
// fit the workspace capacity.
func (ws *workspace) bindRegion(r *graph.Region) {
	ws.sub = regionSubstrate(r)
	ws.toGlobal = r.GlobalIDs()
}

// reset sparsely clears the previous growth. O(touched).
func (ws *workspace) reset() {
	ws.inSet.ClearList(ws.set)
	ws.inFront.ClearList(ws.touched)
	if ws.fenActive {
		// Slots are assigned densely from 0, so only the first len(slots)
		// Fenwick slots can be live — one bulk Reset instead of a Set(s, 0)
		// per slot.
		ws.fen.Reset(len(ws.slots))
		ws.fenActive = false
	}
	ws.set = ws.set[:0]
	ws.touched = ws.touched[:0]
	ws.pool = ws.pool[:0]
	ws.slots = ws.slots[:0]
	ws.delta = ws.delta[:0]
	ws.wLin = ws.wLin[:0]
	ws.wTotal = 0
	ws.linActive = false
	ws.heap = ws.heap[:0]
	ws.heapActive = false
	ws.will = 0
}

// deltaOf computes the objective's marginal gain Δ(v | set) — for
// willingness, η_v + Σ_{u∈set∩N(v)} (τ_{v,u} + τ_{u,v}) — from scratch
// with a direct fused-adjacency scan. O(deg v). Uniform growth (CBAS)
// charges each member once through it; the weighted kernel maintains ΔW
// incrementally in takeSlot instead, and TestFrontierDeltaOracle checks
// that against it.
func (ws *workspace) deltaOf(v graph.NodeID) float64 {
	d := ws.sub.eta[v]
	nbrs, w := ws.sub.edges(v)
	for p, u := range nbrs {
		if ws.inSet.Contains(int(u)) {
			d += w[p]
		}
	}
	return d
}

// snapshot captures the current group as a canonical Solution, translating
// region-local ids back to global ids when a region is bound. The monotone
// remap means sorting after translation yields the same canonical order
// the whole-graph path produces.
func (ws *workspace) snapshot() core.Solution {
	if ws.toGlobal == nil {
		return core.NewSolution(ws.set, ws.will)
	}
	nodes := make([]graph.NodeID, len(ws.set))
	for i, v := range ws.set {
		nodes[i] = ws.toGlobal[v]
	}
	slices.Sort(nodes)
	return core.Solution{Nodes: nodes, Willingness: ws.will}
}

// upperBound is the pruning bound of §3.1: adding v to any group gains at
// most the objective's Bound(v), so no completion of the current partial
// group can exceed the current value plus the sum of the k−|S| largest
// bound scores.
func (ws *workspace) upperBound() float64 {
	r := ws.k - len(ws.set)
	if r >= len(ws.topSum) {
		r = len(ws.topSum) - 1
	}
	return ws.will + ws.topSum[r]
}

// hopeless reports whether the current partial group provably cannot beat
// bestW or the shared incumbent — the cross-start branch-and-bound test.
// One atomic load per check keeps the bound as fresh as other workers'
// completed growths.
//
// The comparison against the shared incumbent is strict (<, not ≤): the
// incumbent rises at schedule-dependent times, and on an exact willingness
// tie core.Solution.Better falls back to the lexicographically smaller
// node set — a ≤ prune could abandon a tying growth that would have won
// that tie-break under a different worker count. With <, every pruned
// growth is strictly worse than a completed candidate, so Report.Best
// stays bit-identical across schedules even through exact ties. The
// chunk-local bound is deterministic for a given task, so ≤ is safe there
// and prunes marginally more.
func (ws *workspace) hopeless(bestW float64) bool {
	ub := ws.upperBound()
	return ub <= bestW || ub < ws.inc.get()
}

// ---------------------------------------------------------------------------
// Uniform growth (CBAS phase 2)

// growUniform grows a connected group from start by drawing frontier nodes
// uniformly at random until |set| = k or the frontier is exhausted. When
// prune is set, the growth is abandoned (returning true) as soon as the
// upper bound cannot beat bestW or the shared incumbent.
func (ws *workspace) growUniform(start graph.NodeID, r *rng.Stream, bestW float64, prune bool) (pruned bool) {
	ws.reset()
	ws.addUniform(start)
	for len(ws.set) < ws.k && len(ws.pool) > 0 {
		if prune && ws.hopeless(bestW) {
			return true
		}
		i := r.IntN(len(ws.pool))
		v := ws.pool[i]
		last := len(ws.pool) - 1
		ws.pool[i] = ws.pool[last]
		ws.pool = ws.pool[:last]
		ws.addUniform(v)
	}
	return false
}

func (ws *workspace) addUniform(v graph.NodeID) {
	ws.will += ws.deltaOf(v)
	ws.inSet.Add(int(v))
	ws.set = append(ws.set, v)
	for _, u := range ws.sub.neighbors(v) {
		if ws.inSet.Contains(int(u)) || ws.inFront.Contains(int(u)) {
			continue
		}
		ws.inFront.Add(int(u))
		ws.touched = append(ws.touched, u)
		ws.pool = append(ws.pool, u)
	}
}

// ---------------------------------------------------------------------------
// Weighted growth (DGreedy, RGreedy, CBASND)

// weightKind selects how a frontier slot's draw weight is derived.
type weightKind int

const (
	// weightDeltaPow draws v with P ∝ ΔW(v|S)^α — CBASND's adapted
	// probabilities. Compatible with the Fenwick backend because the weight
	// depends only on the slot's δ.
	weightDeltaPow weightKind = iota
	// weightGroup draws v with P ∝ W(S∪{v}) = W(S) + ΔW(v|S) — RGreedy.
	// Step-dependent, so always drawn with the linear scanner.
	weightGroup
)

func powWeight(d, alpha float64) float64 {
	if d <= 0 {
		return 0
	}
	switch alpha {
	case 1:
		return d
	case 2:
		return d * d
	default:
		return math.Pow(d, alpha)
	}
}

// seedSlot installs start as slot 0 and selects it.
func (ws *workspace) seedSlot(start graph.NodeID) {
	ws.inFront.Add(int(start))
	ws.touched = append(ws.touched, start)
	ws.slots = append(ws.slots, start)
	ws.slotOf[start] = 0
	d := ws.sub.eta[start]
	ws.delta = append(ws.delta, d)
	if ws.linActive {
		w := powWeight(d, ws.alpha)
		ws.wLin = append(ws.wLin, w)
		ws.wTotal += w
	}
	ws.takeSlot(0)
}

// takeSlot moves the node at slot into the group and refreshes the ΔW of
// affected frontier slots (plus their Fenwick weights or heap entries when
// the corresponding mode is active).
//
// A neighbour u of v seen for the first time gets ΔW(u|S) = eta[u] + w[p]
// in O(1), with no scan of u's adjacency. inFront marks every node that has
// been on the frontier this growth, and every member already expanded its
// whole neighbourhood into it, so a node outside inFront has exactly one
// neighbour in the group: v. The sum is then the one deltaOf(u) would form,
// bit for bit, given two preconditions: adjacency is sorted and unique (no
// multi-edge adds a second term; Graph.Validate), and the entry at v for u
// bit-equals the entry at u for v (the objective contract, see
// objective.Bind; regions are induced subgraphs and keep it).
func (ws *workspace) takeSlot(slot int) {
	v := ws.slots[slot]
	ws.will += ws.delta[slot]
	ws.inSet.Add(int(v))
	ws.set = append(ws.set, v)
	if ws.fenActive {
		ws.fen.Set(slot, 0)
	}
	if ws.linActive {
		ws.wTotal -= ws.wLin[slot]
		ws.wLin[slot] = 0
	}
	nbrs, w := ws.sub.edges(v)
	for p, u := range nbrs {
		if ws.inSet.Contains(int(u)) {
			continue
		}
		if ws.inFront.Contains(int(u)) {
			s := int(ws.slotOf[u])
			ws.delta[s] += w[p]
			if ws.fenActive {
				ws.fen.Set(s, powWeight(ws.delta[s], ws.alpha))
			}
			if ws.linActive {
				w := powWeight(ws.delta[s], ws.alpha)
				ws.wTotal += w - ws.wLin[s]
				ws.wLin[s] = w
			}
			if ws.heapActive {
				ws.heapPush(heapEntry{d: ws.delta[s], v: u, slot: int32(s)})
			}
			continue
		}
		ws.inFront.Add(int(u))
		ws.touched = append(ws.touched, u)
		s := len(ws.slots)
		ws.slots = append(ws.slots, u)
		ws.slotOf[u] = int32(s)
		d := ws.sub.eta[u] + w[p]
		ws.delta = append(ws.delta, d)
		if ws.fenActive {
			ws.fen.Set(s, powWeight(d, ws.alpha))
		}
		if ws.linActive {
			w := powWeight(d, ws.alpha)
			ws.wLin = append(ws.wLin, w)
			ws.wTotal += w
		}
		if ws.heapActive {
			ws.heapPush(heapEntry{d: d, v: u, slot: int32(s)})
		}
	}
}

// heapLess orders the greedy frontier: larger ΔW first, ties to the
// smallest node id — the same total order the step scan used, so the heap
// replacement is bit-compatible with it.
func heapLess(a, b heapEntry) bool {
	if a.d != b.d {
		return a.d > b.d
	}
	return a.v < b.v
}

// heapPush sifts e up the lazy max-heap.
func (ws *workspace) heapPush(e heapEntry) {
	h := append(ws.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	ws.heap = h
}

// heapPop removes and returns the top entry. Callers check staleness.
func (ws *workspace) heapPop() heapEntry {
	h := ws.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < len(h) && heapLess(h[l], h[next]) {
			next = l
		}
		if r < len(h) && heapLess(h[r], h[next]) {
			next = r
		}
		if next == i {
			break
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
	ws.heap = h
	return top
}

// popBest returns the frontier slot with maximum current ΔW (ties to the
// smallest node id), or -1 if the frontier is exhausted. Entries whose slot
// was taken or whose ΔW moved since push are stale and skipped; every
// update pushes a fresh entry, so the live maximum is always present.
func (ws *workspace) popBest() int {
	for len(ws.heap) > 0 {
		e := ws.heapPop()
		if ws.inSet.Contains(int(e.v)) || ws.delta[e.slot] != e.d {
			continue
		}
		return int(e.slot)
	}
	return -1
}

// growGreedy grows deterministically from start, adding the frontier node
// with maximum ΔW each step (ties to the smallest id). The frontier is kept
// in a lazy max-heap, so each step costs O(log frontier) amortized instead
// of the O(frontier) scan it replaces.
func (ws *workspace) growGreedy(start graph.NodeID) {
	ws.reset()
	ws.heapActive = true
	ws.seedSlot(start)
	for len(ws.set) < ws.k {
		best := ws.popBest()
		if best < 0 {
			break
		}
		ws.takeSlot(best)
	}
	ws.heapActive = false
}

// growWeighted grows randomly from start, drawing each next node with the
// probability law selected by kind. When prune is set, the growth is
// abandoned (returning true) once the upper bound cannot beat bestW or the
// shared incumbent.
func (ws *workspace) growWeighted(start graph.NodeID, r *rng.Stream, kind weightKind, bestW float64, prune bool) (pruned bool) {
	ws.reset()
	ws.fenActive = ws.useFen && kind == weightDeltaPow
	ws.linActive = !ws.useFen && kind == weightDeltaPow
	ws.seedSlot(start)
	for len(ws.set) < ws.k {
		if prune && ws.hopeless(bestW) {
			return true
		}
		slot := ws.drawSlot(r, kind)
		if slot < 0 {
			return false
		}
		ws.takeSlot(slot)
	}
	return false
}

// drawSlot picks the next frontier slot, or -1 if the frontier is
// exhausted (every slot selected or zero-weight). Both linear paths
// short-circuit outright when every slot has been taken (len(slots) ==
// len(set), since each group member occupies exactly one slot), so nothing
// is re-derived for slots already in the group. ΔW^α draws use the cached
// weights and running total maintained by takeSlot — one prefix scan, no
// powWeight recomputation; W(S∪{v}) draws (RGreedy) are step-dependent and
// derive weights on the fly.
func (ws *workspace) drawSlot(r *rng.Stream, kind weightKind) int {
	if ws.fenActive {
		slot, err := ws.fen.Sample(r)
		if err != nil {
			return -1
		}
		return slot
	}
	if len(ws.slots) == len(ws.set) {
		return -1 // frontier exhausted: every slot is in the group
	}
	if ws.linActive {
		if ws.wTotal <= 0 {
			return -1
		}
		u := r.Float64() * ws.wTotal
		acc := 0.0
		last := -1
		for s, w := range ws.wLin {
			if w <= 0 {
				continue // taken or zero-gain slot
			}
			acc += w
			last = s
			if u < acc {
				return s
			}
		}
		// Floating-point slack: the running total drifted past the exact
		// prefix sum, or every live slot carries zero weight.
		return last
	}
	// Step-dependent W(S∪{v}) weights: derive once into scratch (taken
	// slots weigh 0) and reuse the shared prefix-scan sampler.
	w := ws.weight[:0]
	for s, v := range ws.slots {
		if ws.inSet.Contains(int(v)) {
			w = append(w, 0)
			continue
		}
		w = append(w, ws.will+ws.delta[s])
	}
	ws.weight = w
	return sampling.WeightedIndex(r, w)
}
