// Package core holds the shared, wire-ready vocabulary of the WASO system:
// the Request every solving entry point accepts, the Report it returns, and
// the Solution value inside it. Keeping these here (rather than in solver)
// lets the outer layers — service, serving daemons, future sharding and
// caching subsystems — exchange work without importing solver internals.
//
// Request deliberately has no implicit defaulting: every field means exactly
// what it says (Samples = 0 really is a zero sample budget), DefaultRequest
// constructs the canonical starting point, and Validate rejects anything a
// solver cannot faithfully execute. Decode JSON on top of DefaultRequest to
// get "absent field = default, present field = explicit" semantics.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"waso/internal/graph"
)

// Default tuning values used by DefaultRequest.
const (
	DefaultStarts  = 8
	DefaultSamples = 200
	DefaultAlpha   = 2.0
)

// DefaultObjective names the objective an empty Request.Objective resolves
// to: the paper's willingness score (Eq. 1). Kept as a plain string so
// core stays free of the objective registry — resolution (and rejection
// of unknown names) happens at solve time.
const DefaultObjective = "willingness"

// Sampler selects the weighted-sampling backend used by CBAS-ND.
type Sampler string

const (
	// SamplerAuto picks linear or Fenwick from the estimated frontier size.
	SamplerAuto Sampler = "auto"
	// SamplerLinear forces O(frontier) prefix-scan draws.
	SamplerLinear Sampler = "linear"
	// SamplerFenwick forces O(log n) Fenwick-tree draws.
	SamplerFenwick Sampler = "fenwick"
)

// Validate reports whether s names a known backend.
func (s Sampler) Validate() error {
	switch s {
	case SamplerAuto, SamplerLinear, SamplerFenwick:
		return nil
	}
	return fmt.Errorf("core: unknown sampler %q (want %q, %q or %q)",
		s, SamplerAuto, SamplerLinear, SamplerFenwick)
}

// RegionMode selects the solver's locality strategy: whether each start's
// growths run on a compact (K−1)-hop search region extracted around it or
// on the whole graph. Like Workers it is execution strategy only — a
// region with radius K−1 contains every node and edge any growth can
// touch, so Report.Best and SamplesDrawn are bit-identical across modes
// and the field is not part of the request identity for caching.
type RegionMode string

const (
	// RegionAuto extracts per-start regions when the estimated ball is
	// small enough to win (bounded extraction, cheap skip heuristic),
	// falling back to the whole graph otherwise. The production default.
	RegionAuto RegionMode = "auto"
	// RegionOff always solves on the whole graph.
	RegionOff RegionMode = "off"
	// RegionAlways forces region extraction regardless of estimated size —
	// the verification mode the equivalence property tests run under.
	RegionAlways RegionMode = "always"
)

// Validate reports whether m names a known region mode.
func (m RegionMode) Validate() error {
	switch m {
	case RegionAuto, RegionOff, RegionAlways:
		return nil
	}
	return fmt.Errorf("core: unknown region mode %q (want %q, %q or %q)",
		m, RegionAuto, RegionOff, RegionAlways)
}

// Request fully specifies one solving call. There are no sentinel values:
// Samples = 0 means "no random samples, greedy completion only", not "use a
// default". Construct with DefaultRequest and override, or decode JSON over
// a DefaultRequest so absent fields keep their defaults.
type Request struct {
	K       int     `json:"k"`       // maximum group size (Eq. 1); must be ≥ 1
	Starts  int     `json:"starts"`  // start nodes from the top of the bound-score ranking; ≥ 1
	Samples int     `json:"samples"` // random samples per start; ≥ 0 (0 = deterministic completion only)
	Seed    uint64  `json:"seed"`    // root seed; all sub-streams derive from it
	Alpha   float64 `json:"alpha"`   // CBAS-ND adapted-probability exponent: P(v) ∝ Δ(v|S)^α
	Sampler Sampler `json:"sampler"` // CBAS-ND weighted-sampler backend
	Prune   bool    `json:"prune"`   // apply the §3.1 upper-bound sample pruning

	// Objective names the registered scoring objective the solve maximizes
	// (internal/objective); empty means DefaultObjective. Validate only
	// shape-checks it — unknown names are rejected by the solver (and map
	// to invalid-request errors in the serving layers), keeping core free
	// of the registry. Part of the request identity: different objectives
	// produce different Bests.
	Objective string `json:"objective,omitempty"`

	// Region selects whole-graph vs per-start (K−1)-hop search regions.
	// Execution strategy only: never affects Best or SamplesDrawn.
	Region RegionMode `json:"region"`

	// Workers bounds how many of the solve's tasks run at once on the
	// executor; ≤ 0 means GOMAXPROCS, and values above GOMAXPROCS are
	// clamped to it (each running task carries a workspace, so a solve
	// never holds more than the hardware can use).
	// Scheduling only — it never affects results, so it is not part of the
	// request identity for caching.
	Workers int `json:"workers,omitempty"`
}

// DefaultRequest returns the canonical request for group-size bound k:
// paper-default tuning, pruning on, automatic sampler backend.
func DefaultRequest(k int) Request {
	return Request{
		K:       k,
		Starts:  DefaultStarts,
		Samples: DefaultSamples,
		Alpha:   DefaultAlpha,
		Sampler: SamplerAuto,
		Prune:   true,
		Region:  RegionAuto,
	}
}

// DecodeRequest decodes a JSON request document over DefaultRequest(0)
// with unknown fields rejected: absent fields keep the paper defaults,
// explicit zeros mean what they say, and typos fail loudly. This is the
// one transport-side decoding rule — wasod solve/batch bodies and waso
// -batch items all parse through it, so the front ends cannot drift. An
// empty document yields the plain defaults (K = 0, caught by Validate).
func DecodeRequest(raw []byte) (Request, error) {
	req := DefaultRequest(0)
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, err
		}
	}
	return req, nil
}

// Validate reports the first field a solver could not faithfully execute.
// Every rejection names the offending field and the value it carried, in
// one uniform "core: Request.<Field> ..." shape, so the message is useful
// verbatim as a 400 body.
func (r Request) Validate() error {
	if r.K < 1 {
		return fmt.Errorf("core: Request.K must be ≥ 1, got %d", r.K)
	}
	if r.Starts < 1 {
		return fmt.Errorf("core: Request.Starts must be ≥ 1, got %d", r.Starts)
	}
	if r.Samples < 0 {
		return fmt.Errorf("core: Request.Samples must be ≥ 0, got %d", r.Samples)
	}
	if math.IsNaN(r.Alpha) || math.IsInf(r.Alpha, 0) || r.Alpha < 0 {
		return fmt.Errorf("core: Request.Alpha must be finite and ≥ 0, got %v", r.Alpha)
	}
	if err := r.Sampler.Validate(); err != nil {
		return fmt.Errorf("core: Request.Sampler: %w", err)
	}
	if err := r.Region.Validate(); err != nil {
		return fmt.Errorf("core: Request.Region: %w", err)
	}
	return nil
}

// Report is the result of one solving call: the best group found plus the
// search counters and timing the paper's figures (and the serving metrics)
// are built from.
//
// Best is deterministic: it depends only on (graph, Request minus
// Workers), never on the worker count or goroutine schedule. The search
// counters are advisory. Under the solvers' shared-incumbent pruning,
// which samples get abandoned depends on how fast the cross-start
// incumbent rises on a given schedule, so Pruned may differ between runs
// with different worker counts (and SamplesDrawn is partial after a
// cancelled solve). Treat them as workload telemetry, not part of the
// result identity — caching and response comparison should key on Best.
type Report struct {
	Algo         string        `json:"algo"`
	Best         Solution      `json:"best"`
	Starts       int           `json:"starts"`        // start nodes actually explored
	SamplesDrawn int64         `json:"samples_drawn"` // advisory: random samples attempted (0 for dgreedy)
	Pruned       int64         `json:"pruned"`        // advisory: samples abandoned by the upper bound
	Elapsed      time.Duration `json:"elapsed_ns"`    // wall-clock solve time

	// Degraded marks an answer produced under overload with clamped
	// sample/start budgets (the serving layer's degrade-before-shed mode):
	// still a valid solution, but possibly worse than an unloaded solve of
	// the same request would return. Solvers never set it — only the
	// admission layer does — so library results always report false.
	Degraded bool `json:"degraded,omitempty"`

	// Policy records the objective's applied scale-adaptive budget plan
	// (the human-readable objective.Plan.Policy string). Empty when the
	// objective expressed no plan — in particular for the default
	// willingness objective, so its wire reports are unchanged.
	Policy string `json:"policy,omitempty"`
}

// ElapsedMillis returns the wall-clock solve time in milliseconds.
func (r Report) ElapsedMillis() float64 {
	return float64(r.Elapsed.Microseconds()) / 1000
}

// BatchItem is one solve of a batch: the algorithm name plus its fully
// specified Request. A batch runs many (algo, k, budget) queries against
// one resident graph in a single round-trip — the paper's per-graph
// configuration sweeps, and the scale-adaptive serving pattern of many
// small queries per graph — amortizing the graph's shared state (ranking,
// workspace pool, region cache) and the scheduler attachment across all of
// them.
type BatchItem struct {
	Algo    string  `json:"algo"`
	Request Request `json:"request"`
}

// BatchReport is the outcome of one BatchItem: exactly one of Report or
// Error is set. Items fail independently — one bad item never aborts its
// batch. Err preserves the typed error for in-process callers (transports
// map it to a per-item status code); Error is its wire rendering.
type BatchReport struct {
	Algo   string  `json:"algo"`
	Report *Report `json:"report,omitempty"`
	Error  string  `json:"error,omitempty"`
	Err    error   `json:"-"`
}

// Solution is a candidate activity group: the attendee set F and its
// willingness W(F) per Eq. 1. Nodes are kept in canonical (ascending) order
// so solutions compare and hash deterministically.
type Solution struct {
	Nodes       []graph.NodeID `json:"nodes"`
	Willingness float64        `json:"willingness"`
}

// NewSolution copies nodes into canonical order and attaches the given
// willingness.
func NewSolution(nodes []graph.NodeID, w float64) Solution {
	out := append([]graph.NodeID(nil), nodes...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return Solution{Nodes: out, Willingness: w}
}

// Size returns |F|.
func (s Solution) Size() int { return len(s.Nodes) }

// Clone returns a deep copy.
func (s Solution) Clone() Solution {
	return Solution{Nodes: append([]graph.NodeID(nil), s.Nodes...), Willingness: s.Willingness}
}

// Better reports whether s strictly dominates o for incumbent selection:
// higher willingness wins; on exact ties the lexicographically smaller node
// set wins, which keeps multi-start reduction order-independent.
func (s Solution) Better(o Solution) bool {
	if s.Willingness != o.Willingness {
		return s.Willingness > o.Willingness
	}
	return s.less(o)
}

func (s Solution) less(o Solution) bool {
	for i := 0; i < len(s.Nodes) && i < len(o.Nodes); i++ {
		if s.Nodes[i] != o.Nodes[i] {
			return s.Nodes[i] < o.Nodes[i]
		}
	}
	return len(s.Nodes) < len(o.Nodes)
}

// Equal reports whether both solutions contain the same node set.
func (s Solution) Equal(o Solution) bool {
	if len(s.Nodes) != len(o.Nodes) {
		return false
	}
	for i := range s.Nodes {
		if s.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	return true
}

// String renders "W=12.34 F={1 5 9}" for logs and test failures.
func (s Solution) String() string {
	return fmt.Sprintf("W=%.4f F=%v", s.Willingness, s.Nodes)
}
