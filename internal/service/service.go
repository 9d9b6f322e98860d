// Package service is the serving layer between the solver library and the
// network: a concurrency-safe in-memory store of long-lived social graphs
// plus a request orchestrator. Each stored graph carries a recycled
// workspace pool plus, per scoring objective, a precomputed bound-score
// ranking (solver.Prep) and a bounded LRU of extracted (start, radius)
// search regions (solver.RegionCache) — all built or filled once and
// shared by every request against that (graph, objective), the
// amortization that makes many concurrent (k, budget) queries against one
// graph cheap, per the scale-adaptive serving model of Shuai et al. The
// default willingness objective's state is built eagerly at load; other
// registered objectives bind lazily on first use and then stay resident.
//
// The service also owns one shared solver.Executor — a single goroutine
// pool sized to GOMAXPROCS — and routes every Solve and SolveBatch through
// it, so total solver goroutines stay bounded no matter how many requests
// are in flight, and admission control and /metrics read its lanes and
// queue. SolveBatch runs
// many (algo, request) items against one graph in a single call, items
// scheduled concurrently and failing independently.
//
// Layering: core (DTOs) → graph → solver → service → cmd/wasod. The service
// owns graph lifetime (load/generate/evict) and per-request deadlines; it
// knows nothing about HTTP.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waso/internal/admit"
	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/metrics"
	"waso/internal/objective"
	"waso/internal/solver"
	"waso/internal/store"
)

// Sentinel errors, used by transports to pick status codes.
var (
	// ErrNotFound reports an unknown graph id.
	ErrNotFound = errors.New("service: graph not found")
	// ErrExists reports a Load/Generate onto an id already in use.
	ErrExists = errors.New("service: graph id already exists")
	// ErrInvalid wraps caller mistakes: bad ids, unknown algorithms,
	// invalid requests, graphs that fail validation.
	ErrInvalid = errors.New("service: invalid argument")
	// ErrConflict reports a conditional mutation whose if_version did not
	// match the graph's current version — the optimistic-concurrency miss
	// transports map to 409.
	ErrConflict = errors.New("service: version conflict")
)

// Config tunes a Service.
type Config struct {
	// DefaultTimeout bounds each Solve whose context carries no deadline of
	// its own; 0 means no implicit deadline.
	DefaultTimeout time.Duration
	// MaxGraphs caps the number of resident graphs; 0 means unlimited.
	// Load/Generate beyond the cap fail — eviction is the caller's policy.
	MaxGraphs int
	// MaxNodes caps the node count of any loaded or generated graph; 0
	// means unlimited. This is the guard that keeps one generate request
	// from allocating unbounded memory server-side.
	MaxNodes int
	// MaxEdges caps the (estimated, for generate specs) undirected edge
	// count of any resident graph; 0 means unlimited. Bounds dense specs
	// whose node count alone looks harmless.
	MaxEdges int
	// MaxRegions caps each resident graph's (start, radius) search-region
	// cache. 0 means solver.DefaultRegionCacheEntries; a negative value
	// disables region caching (solves still extract regions per call when
	// the request's region mode asks for them).
	MaxRegions int
	// Admit configures overload admission control (queue caps, latency
	// shedding, per-client quotas, degrade-before-shed). The zero value
	// admits everything; see admit.Config.
	Admit admit.Config
	// Store, when non-nil, is the durable layer: uploads write a snapshot,
	// mutations append to the graph's WAL, and Recover replays everything
	// back at boot. Nil means memory-only serving (state dies with the
	// process), which keeps tests and ephemeral benchmarks cheap.
	Store *store.Store
}

// GraphInfo is the wire-ready description of one resident graph.
type GraphInfo struct {
	ID        string    `json:"id"`
	Nodes     int       `json:"nodes"`
	Edges     int       `json:"edges"`
	AvgDegree float64   `json:"avg_degree"`
	Source    string    `json:"source"`  // provenance: "upload", "binary", gen.Spec string, ...
	Prepped   bool      `json:"prepped"` // precomputed bound-score ranking is resident
	CreatedAt time.Time `json:"created_at"`
	// Version is the graph's monotone mutation counter: 0 as loaded, +1
	// per applied PATCH batch. It doubles as the optimistic-concurrency
	// token for conditional mutations (if_version).
	Version uint64 `json:"version"`
	// ResidentBytes is the in-memory CSR footprint of the graph's arrays.
	ResidentBytes int64 `json:"resident_bytes"`
}

// objState is the shared per-(graph, objective) precomputation: the
// objective's binding over the graph, its bound-score ranking, and its
// search-region cache, so many requests against one (graph, objective)
// share the same ranking and extracted (start, radius) locality instances
// regardless of their budgets or α. States for different objectives are
// fully independent — their fused slabs, rankings and cached regions never
// mix.
type objState struct {
	b       *objective.Binding
	prep    *solver.Prep
	regions *solver.RegionCache // nil when Config.MaxRegions < 0
}

// entry pairs a graph with its workspace pool — the recycled per-worker
// scratch buffers that keep a busy serving path from allocating O(n) state
// on every request, shared across objectives because workspaces are
// objective-agnostic — and its per-objective states.
type entry struct {
	g    *graph.Graph
	pool *solver.WorkspacePool

	// objMu guards objs, the lazily grown per-objective states (keyed by
	// canonical objective name; the default willingness state is present
	// from construction). Lock order: s.mu (either mode) before objMu;
	// nothing takes s.mu while holding objMu.
	objMu sync.Mutex
	objs  map[string]*objState

	info GraphInfo
}

// Service is the in-memory graph store and solve orchestrator. All methods
// are safe for concurrent use.
type Service struct {
	cfg   Config
	start time.Time

	// exec is the server-wide solve scheduler: one goroutine pool sized to
	// GOMAXPROCS that every Solve and SolveBatch runs on, so total solver
	// goroutines stay bounded no matter how many requests are in flight.
	exec *solver.Executor

	// adm is the admission controller guarding exec: it sheds or degrades
	// requests against the executor's backlog and latency signals before
	// they are scheduled. Always non-nil (zero config admits everything).
	adm *admit.Controller

	// reg and met are the process metrics registry and the per-solve
	// instruments; see metrics.go for the catalogue and the neutrality
	// contract (instruments observe outcomes, never influence them).
	reg *metrics.Registry
	met solveMetrics

	// st is the optional durable layer (Config.Store); nil = memory-only.
	st *store.Store

	// mutMu serializes the control plane — Load/Generate's durable
	// registration, Mutate, Evict, Recover — so a mutation's
	// apply→WAL-append→entry-swap sequence is atomic against concurrent
	// loads and evictions. Solves never take it. Lock order: mutMu before
	// s.mu, never the reverse.
	mutMu sync.Mutex

	// mutations counts applied mutation batches across all graphs
	// (waso_graph_mutations_total).
	mutations atomic.Uint64

	mu      sync.RWMutex
	graphs  map[string]*entry
	retired cacheTotals // counters of evicted graphs, so totals stay monotone
}

// New returns an empty Service. Close releases its shared executor.
func New(cfg Config) *Service {
	s := &Service{
		cfg:    cfg,
		start:  time.Now(),
		exec:   solver.NewExecutor(0),
		reg:    metrics.NewRegistry(),
		graphs: make(map[string]*entry),
		st:     cfg.Store,
	}
	// The controller reads the executor's own telemetry: task backlog
	// (total and the bulk lane's share) and the queue-wait histogram whose
	// windowed p99 drives latency shedding.
	s.adm = admit.New(cfg.Admit, admit.Signals{
		QueueDepth: func() (int, int) {
			st := s.exec.Stats()
			return st.TasksQueued, st.Lanes[solver.LaneBulk].TasksQueued
		},
		QueueWait: s.exec.QueueWait().Snapshot,
	})
	s.registerMetrics()
	return s
}

// Close stops the shared solve executor after draining in-flight work. The
// store itself needs no teardown; solves issued after Close fail with
// solver.ErrExecutorClosed.
func (s *Service) Close() {
	s.exec.Close()
}

// Load stores g under id, precomputing its default-objective bound-score
// ranking. The source string records provenance for List. Fails with
// ErrExists if id is taken and ErrInvalid for empty ids or empty graphs.
func (s *Service) Load(id string, g *graph.Graph, source string) (GraphInfo, error) {
	if id == "" {
		return GraphInfo{}, fmt.Errorf("%w: empty graph id", ErrInvalid)
	}
	if g == nil || g.N() == 0 {
		return GraphInfo{}, fmt.Errorf("%w: empty graph", ErrInvalid)
	}
	if s.cfg.MaxNodes > 0 && g.N() > s.cfg.MaxNodes {
		return GraphInfo{}, fmt.Errorf("%w: graph has %d nodes, cap is %d", ErrInvalid, g.N(), s.cfg.MaxNodes)
	}
	if s.cfg.MaxEdges > 0 && g.M() > s.cfg.MaxEdges {
		return GraphInfo{}, fmt.Errorf("%w: graph has %d edges, cap is %d", ErrInvalid, g.M(), s.cfg.MaxEdges)
	}
	// Cheap precheck so a duplicate id or full store fails before the
	// O(n log n) ranking pass; the write-locked recheck below stays
	// authoritative under races.
	if err := s.admit(id); err != nil {
		return GraphInfo{}, err
	}
	// The ranking pass is O(n log n + m); do it outside the lock so a large
	// upload never stalls concurrent solves. The region cache starts empty
	// and fills on demand as requests touch (start, radius) keys.
	e := s.newEntry(g, GraphInfo{
		ID:        id,
		Source:    source,
		CreatedAt: time.Now().UTC(),
	})
	// The control-plane lock makes the durable create and the map insert
	// one atomic step against concurrent loads, mutations and evictions.
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if err := s.admit(id); err != nil {
		return GraphInfo{}, err
	}
	if s.st != nil {
		if err := s.st.Create(id, g); err != nil {
			if errors.Is(err, store.ErrReadOnly) {
				return GraphInfo{}, storageUnavailable()
			}
			return GraphInfo{}, fmt.Errorf("service: persist graph: %w", err)
		}
	}
	s.mu.Lock()
	s.graphs[id] = e
	s.mu.Unlock()
	return e.info, nil
}

// newEntry builds a resident entry for g: workspace pool, the default
// objective's precomputed ranking and empty region cache, and the size
// fields of info filled in. Non-default objectives bind lazily on first
// use (objStateFor).
func (s *Service) newEntry(g *graph.Graph, info GraphInfo) *entry {
	info.Nodes = g.N()
	info.Edges = g.M()
	info.AvgDegree = g.AvgDegree()
	info.Prepped = true
	info.ResidentBytes = g.ResidentBytes()
	e := &entry{
		g:    g,
		pool: solver.NewWorkspacePool(g),
		objs: make(map[string]*objState, 1),
		info: info,
	}
	def, err := objective.New(objective.Default)
	if err != nil {
		panic(fmt.Sprintf("service: default objective unregistered: %v", err))
	}
	e.objs[def.Name()] = s.newObjState(def, g)
	return e
}

// newObjState builds the shared state for one objective over g: binding,
// bound-score ranking, and (unless disabled) an empty region cache.
func (s *Service) newObjState(obj objective.Objective, g *graph.Graph) *objState {
	b := objective.Bind(obj, g)
	os := &objState{b: b, prep: solver.NewPrep(b)}
	if s.cfg.MaxRegions >= 0 {
		os.regions = solver.NewRegionCache(b, s.cfg.MaxRegions)
	}
	return os
}

// objStateFor returns e's shared state for obj, binding it on first use.
// The build — array materialization plus the O(n log n) ranking pass — runs
// under e.objMu, so concurrent first requests for one objective do the work
// once; once built, a state stays resident for the entry's lifetime.
func (s *Service) objStateFor(e *entry, obj objective.Objective) *objState {
	e.objMu.Lock()
	defer e.objMu.Unlock()
	os := e.objs[obj.Name()]
	if os == nil {
		os = s.newObjState(obj, e.g)
		e.objs[obj.Name()] = os
	}
	return os
}

// admit read-locks and runs the id/cap admission checks.
func (s *Service) admit(id string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitLocked(id)
}

// AdmitID reports whether id could currently be admitted as a new graph:
// non-empty, not already resident, and within the resident-graph cap.
// Transports call it before paying to decode a large upload body; the
// answer is advisory under races — Load re-checks authoritatively under
// the write lock.
func (s *Service) AdmitID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: empty graph id", ErrInvalid)
	}
	return s.admit(id)
}

// admitLocked checks duplicate ids and the resident-graph cap. Callers
// hold s.mu (either mode).
func (s *Service) admitLocked(id string) error {
	if _, dup := s.graphs[id]; dup {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	if s.cfg.MaxGraphs > 0 && len(s.graphs) >= s.cfg.MaxGraphs {
		return fmt.Errorf("%w: graph cap %d reached, evict first", ErrInvalid, s.cfg.MaxGraphs)
	}
	return nil
}

// Generate builds a synthetic instance from spec and stores it under id.
// The node- and edge-count caps and admission checks run before the
// expensive build, so oversized specs are rejected for free.
func (s *Service) Generate(id string, spec gen.Spec) (GraphInfo, error) {
	if s.cfg.MaxNodes > 0 && spec.N > s.cfg.MaxNodes {
		return GraphInfo{}, fmt.Errorf("%w: spec asks for %d nodes, cap is %d", ErrInvalid, spec.N, s.cfg.MaxNodes)
	}
	// Estimated undirected edges: n·avgdeg/2. NaN/Inf degrees are rejected
	// by spec.Build, but bound the estimate here before any allocation.
	if s.cfg.MaxEdges > 0 && spec.AvgDeg > 0 &&
		float64(spec.N)*spec.AvgDeg/2 > float64(s.cfg.MaxEdges) {
		return GraphInfo{}, fmt.Errorf("%w: spec asks for ≈%.0f edges, cap is %d",
			ErrInvalid, float64(spec.N)*spec.AvgDeg/2, s.cfg.MaxEdges)
	}
	if err := s.admit(id); err != nil {
		return GraphInfo{}, err
	}
	g, err := spec.Build()
	if err != nil {
		return GraphInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return s.Load(id, g, "generate:"+spec.String())
}

// LoadEdgeList validates an edge-list document's declared size against the
// caps before its O(n) build, then stores the result — the ingestion path
// for untrusted uploads.
func (s *Service) LoadEdgeList(id string, doc graph.EdgeListJSON) (GraphInfo, error) {
	if s.cfg.MaxNodes > 0 && doc.Nodes > s.cfg.MaxNodes {
		return GraphInfo{}, fmt.Errorf("%w: upload declares %d nodes, cap is %d", ErrInvalid, doc.Nodes, s.cfg.MaxNodes)
	}
	if s.cfg.MaxEdges > 0 && len(doc.Edges) > s.cfg.MaxEdges {
		return GraphInfo{}, fmt.Errorf("%w: upload declares %d edges, cap is %d", ErrInvalid, len(doc.Edges), s.cfg.MaxEdges)
	}
	if err := s.admit(id); err != nil {
		return GraphInfo{}, err
	}
	g, err := doc.Build()
	if err != nil {
		return GraphInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return s.Load(id, g, "upload")
}

// Get returns the stored graph and its metadata.
func (s *Service) Get(id string) (*graph.Graph, GraphInfo, error) {
	s.mu.RLock()
	e := s.graphs[id]
	s.mu.RUnlock()
	if e == nil {
		return nil, GraphInfo{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e.g, e.info, nil
}

// List returns metadata for every resident graph, ordered by id.
func (s *Service) List() []GraphInfo {
	s.mu.RLock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		out = append(out, e.info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Evict removes the graph, including its durable state. In-flight solves
// against it finish normally — they hold their own references to the
// graph, prep, pool and region cache, none of which Evict touches. The
// control-plane lock means an eviction never lands in the middle of a
// mutation's apply→append→swap sequence.
func (s *Service) Evict(id string) error {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	s.mu.Lock()
	e, ok := s.graphs[id]
	if ok {
		// Fold the dying entry's cache counters into the retired totals so
		// the cross-graph counter families never move backwards on eviction.
		s.retired.addEntry(e)
		delete(s.graphs, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if s.st != nil {
		if err := s.st.Remove(id); err != nil {
			return fmt.Errorf("service: remove durable state: %w", err)
		}
	}
	return nil
}

// Mutate applies one batch of mutations to the stored graph: validate and
// apply copy-on-write, append the batch to the graph's WAL, then swap in a
// new entry whose per-graph state is updated surgically, objective by
// objective — each resident objective's bound-score ranking is
// delta-rescored for the touched nodes only, and each region cache keeps
// every (start, radius) entry whose k-hop ball provably excludes the edit
// (checked by BFS distance on both the old and new graph, one BFS pair
// shared across all objectives), so unrelated cached regions stay hot
// across mutations under every objective a client has exercised.
//
// ifVersion < 0 applies unconditionally; otherwise the batch applies only
// if the graph is currently at that version (ErrConflict when not — the
// optimistic-concurrency handshake behind HTTP 409). Solves already in
// flight keep their pre-mutation snapshot; solves admitted after Mutate
// returns see the new graph. When the durable layer has degraded to
// read-only, Mutate refuses with an *OverloadError transports map to
// 503 + Retry-After.
//
//lint:allow ctxcheck(loops are bounded by the resident objective count and the touched-set BFS, no cancellation points)
func (s *Service) Mutate(ctx context.Context, id string, muts []graph.Mutation, ifVersion int64) (GraphInfo, error) {
	if len(muts) == 0 {
		return GraphInfo{}, fmt.Errorf("%w: empty mutation batch", ErrInvalid)
	}
	if s.st != nil && s.st.ReadOnly() {
		return GraphInfo{}, storageUnavailable()
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	e, err := s.entryFor(id)
	if err != nil {
		return GraphInfo{}, err
	}
	if ifVersion >= 0 && uint64(ifVersion) != e.info.Version {
		return GraphInfo{}, fmt.Errorf("%w: graph %q is at version %d, not %d",
			ErrConflict, id, e.info.Version, ifVersion)
	}
	newG, touched, err := e.g.ApplyMutations(muts)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if s.cfg.MaxNodes > 0 && newG.N() > s.cfg.MaxNodes {
		return GraphInfo{}, fmt.Errorf("%w: mutation grows graph to %d nodes, cap is %d",
			ErrInvalid, newG.N(), s.cfg.MaxNodes)
	}
	if s.cfg.MaxEdges > 0 && newG.M() > s.cfg.MaxEdges {
		return GraphInfo{}, fmt.Errorf("%w: mutation grows graph to %d edges, cap is %d",
			ErrInvalid, newG.M(), s.cfg.MaxEdges)
	}

	// Durability before visibility: the batch is in the WAL (under the
	// configured fsync policy) before any solve can observe its effects.
	seq := e.info.Version + 1
	snapDue := false
	if s.st != nil {
		snapDue, err = s.st.Append(id, seq, muts)
		if err != nil {
			if errors.Is(err, store.ErrReadOnly) || s.st.ReadOnly() {
				return GraphInfo{}, storageUnavailable()
			}
			return GraphInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}

	ne := &entry{
		g:    newG,
		pool: solver.NewWorkspacePool(newG),
		info: e.info,
	}
	ne.info.Version = seq
	ne.info.Nodes = newG.N()
	ne.info.Edges = newG.M()
	ne.info.AvgDegree = newG.AvgDegree()
	ne.info.ResidentBytes = newG.ResidentBytes()

	// Carry every resident objective's state across the mutation. A lazy
	// bind racing this snapshot lands on the dying entry and rebuilds on
	// next use — correct, just unamortized (and its cache counters are a
	// bounded undercount, as with eviction).
	e.objMu.Lock()
	states := make(map[string]*objState, len(e.objs))
	for name, os := range e.objs {
		states[name] = os
	}
	e.objMu.Unlock()

	// Surgical region invalidation: a cached (start, radius) ball can only
	// have changed if some edited node lies within radius hops of start —
	// on the old graph (the ball as cached) or the new one (the ball as it
	// should now be). One multi-source BFS pair from the touched nodes, run
	// to the deepest radius any objective has cached, answers every key's
	// distance check for every objective.
	maxR, anyRegions := 0, false
	for _, os := range states {
		if os.regions != nil {
			anyRegions = true
			if r := os.regions.MaxRadius(); r > maxR {
				maxR = r
			}
		}
	}
	var distOld, distNew map[graph.NodeID]int
	if anyRegions {
		distOld = e.g.HopDistances(touched, maxR)
		distNew = newG.HopDistances(touched, maxR)
	}
	keep := func(start graph.NodeID, radius int) bool {
		if d, ok := distOld[start]; ok && d <= radius {
			return false
		}
		if d, ok := distNew[start]; ok && d <= radius {
			return false
		}
		return true
	}
	ne.objs = make(map[string]*objState, len(states))
	for name, os := range states {
		nb := objective.Bind(os.b.Objective(), newG)
		nos := &objState{b: nb, prep: os.prep.Rescore(nb, touched)}
		if os.regions != nil {
			nos.regions = os.regions.CloneFor(nb, keep)
		}
		ne.objs[name] = nos
	}

	s.mu.Lock()
	// The workspace pool is rebuilt rather than carried, so fold the old
	// one's counters into the retired totals; the region cache's counters
	// moved into the clone above.
	s.retired.addPool(e)
	s.graphs[id] = ne
	s.mu.Unlock()
	s.mutations.Add(1)

	if snapDue && s.st != nil {
		// The WAL reached the snapshot cadence: fold it into a fresh
		// snapshot so recovery stays O(recent mutations). A failure here
		// degrades the store (future writes are refused) but the mutation
		// itself is already durable — report success.
		_ = s.st.Snapshot(id, newG, seq)
	}
	return ne.info, nil
}

// Recover replays the durable layer and registers every recovered graph
// for serving, with freshly built rankings and caches. Call once at boot,
// before the transport starts. Returns the recovered graph descriptions,
// sorted by id. A memory-only service recovers nothing.
func (s *Service) Recover() ([]GraphInfo, error) {
	if s.st == nil {
		return nil, nil
	}
	recs, err := s.st.Recover()
	if err != nil {
		return nil, err
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	out := make([]GraphInfo, 0, len(recs))
	for _, r := range recs {
		e := s.newEntry(r.Graph, GraphInfo{
			ID:        r.ID,
			Source:    "recovered",
			CreatedAt: time.Now().UTC(),
			Version:   r.Version,
		})
		s.mu.Lock()
		s.graphs[r.ID] = e
		s.mu.Unlock()
		out = append(out, e.info)
	}
	return out, nil
}

// entryFor returns the resident entry for graphID.
func (s *Service) entryFor(graphID string) (*entry, error) {
	s.mu.RLock()
	e := s.graphs[graphID]
	s.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, graphID)
	}
	return e, nil
}

// withDeadline applies the configured default timeout when ctx carries no
// deadline of its own. The returned cancel must always be called.
func (s *Service) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.DefaultTimeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		}
	}
	return ctx, func() {}
}

// withShared attaches the graph's objective-agnostic shared state — the
// recycled workspace pool — and the service-wide solve executor to ctx.
// One attachment pass serves every solve dispatched on the returned
// context; the per-objective state (ranking, region cache) is attached by
// solveEntry once the item's objective is known.
func (s *Service) withShared(ctx context.Context, e *entry) context.Context {
	ctx = solver.WithExecutor(ctx, s.exec)
	ctx = solver.WithWorkspacePool(ctx, e.pool)
	return ctx
}

// objLabel renders a request's objective for metrics labels: the canonical
// registered name, or "unknown" for anything unregistered, so client typos
// cannot mint unbounded label values.
func objLabel(name string) string {
	if obj, err := objective.New(name); err == nil {
		return obj.Name()
	}
	return "unknown"
}

// solveEntry validates and runs one (algo, req) against a resident entry
// whose shared state is already on ctx, attaching the request objective's
// per-graph state (ranking, region cache) before dispatch. Every outcome
// updates the solve instruments (see metrics.go); unknown algorithms and
// objectives are labelled "unknown" so client typos cannot mint unbounded
// label values.
func (s *Service) solveEntry(ctx context.Context, e *entry, algo string, req core.Request) (core.Report, error) {
	sv, err := solver.New(algo)
	if err != nil {
		s.met.errors.With("unknown", objLabel(req.Objective), "invalid").Inc()
		return core.Report{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	algo = sv.Name() // canonical label value
	obj, err := objective.New(req.Objective)
	if err != nil {
		s.met.errors.With(algo, "unknown", "invalid").Inc()
		return core.Report{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	objName := obj.Name() // canonical label value
	if err := req.Validate(); err != nil {
		s.met.errors.With(algo, objName, "invalid").Inc()
		return core.Report{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// RegionAlways is a verification mode for direct library use: it
	// bypasses the extraction caps, so a wire client could make every
	// request duplicate O(starts × component) memory. The serving path
	// downgrades it to the capped auto policy — results are identical in
	// every mode, so this only bounds work, never changes answers.
	if req.Region == core.RegionAlways {
		req.Region = core.RegionAuto
	}
	os := s.objStateFor(e, obj)
	ctx = solver.WithPrep(ctx, os.prep)
	if os.regions != nil {
		ctx = solver.WithRegionCache(ctx, os.regions)
	}
	s.met.inflight.Inc()
	begin := time.Now()
	rep, err := sv.Solve(ctx, e.g, req)
	s.met.latency.With(algo, objName).Observe(time.Since(begin).Seconds())
	s.met.inflight.Dec()
	if errors.Is(err, solver.ErrNoGroup) {
		// A validated request the solver still cannot answer (e.g. rgreedy
		// with a zero sample budget) is a client mistake, not a server
		// fault — keep it in the invalid-argument family for transports.
		err = fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err != nil {
		s.met.errors.With(algo, objName, errKind(err)).Inc()
		return rep, err
	}
	s.met.samples.With(algo).Add(uint64(rep.SamplesDrawn))
	s.met.pruned.With(algo).Add(uint64(rep.Pruned))
	s.met.will.With(algo).Observe(rep.Best.Willingness)
	s.met.group.With(algo).Observe(float64(rep.Best.Size()))
	return rep, nil
}

// Solve runs the named algorithm against the stored graph, sharing the
// graph's precomputed ranking, recycled workspace pool and search-region
// cache, scheduling its work on the service-wide executor, and applying
// the configured default timeout when ctx carries no deadline.
// Cancellation and deadline errors pass through as ctx.Err() values
// (context.Canceled, context.DeadlineExceeded).
//
// Solve is interactive-priority by default: it passes admission control as
// interactive work and its tasks drain ahead of bulk (batch) backlog on
// the executor. A context marked WithBulkPriority runs in the bulk class
// instead. Under overload Solve returns *OverloadError, or — in
// degrade-before-shed mode — runs with clamped budgets and marks the
// Report Degraded. Admission never alters non-degraded answers: an
// admitted full-budget solve is bit-identical to one with admission off.
func (s *Service) Solve(ctx context.Context, graphID, algo string, req core.Request) (core.Report, error) {
	e, err := s.entryFor(graphID)
	if err != nil {
		return core.Report{}, err
	}
	bulk := bulkFor(ctx)
	d, release, err := s.admitSolve(ctx, bulk)
	if err != nil {
		return core.Report{}, err
	}
	defer release()
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	lane := solver.LaneInteractive
	if bulk {
		lane = solver.LaneBulk
	}
	ctx = solver.WithLane(ctx, lane)
	rep, err := s.solveEntry(s.withShared(ctx, e), e, algo, clampRequest(req, d))
	if err == nil && d.Degraded {
		rep.Degraded = true
	}
	return rep, err
}

// batchCoordinators bounds the goroutines that dispatch batch items. Each
// coordinator plays the role one HTTP handler goroutine plays for a single
// solve: it runs the per-solve setup (validation, region planning against
// the shared cache) and outcome reduction inline, and blocks for the
// solve's duration while the sampling work itself runs on the shared
// executor. A small multiple of the pool keeps the executor saturated
// without spawning one goroutine per item of an arbitrarily large batch.
func (s *Service) batchCoordinators(items int) int {
	n := 4 * s.exec.Workers()
	if items < n {
		n = items
	}
	return n
}

// SolveBatch runs every item against the stored graph, attaching the
// graph's shared state (ranking, workspace pool, region cache) and the
// service-wide executor once for the whole batch. Items are scheduled
// concurrently onto the shared pool and fail independently: a bad
// algorithm or request in one item yields an error in that item's
// BatchReport and touches nothing else. The whole call errors only when
// the batch itself is unusable (unknown graph, empty batch). The
// configured default timeout, when ctx has no deadline, bounds the batch
// as a whole.
//
// Results are positional: out[i] answers items[i], and each Report.Best is
// bit-identical to a sequential Service.Solve of the same item — the
// executor and batch scheduling never affect answers.
//
// A batch is one bulk-priority admission unit: the whole call passes
// admission control once (holding one quota slot for its duration), and
// every item's tasks ride the executor's bulk lane, draining behind
// interactive solves under weighted round-robin. Under overload the call
// returns *OverloadError; in degrade mode every item runs with clamped
// budgets and its Report is marked Degraded.
func (s *Service) SolveBatch(ctx context.Context, graphID string, items []core.BatchItem) ([]core.BatchReport, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	e, err := s.entryFor(graphID)
	if err != nil {
		return nil, err
	}
	d, release, err := s.admitSolve(ctx, true)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	ctx = solver.WithLane(s.withShared(ctx, e), solver.LaneBulk)

	out := make([]core.BatchReport, len(items))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.batchCoordinators(len(items)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				br := core.BatchReport{Algo: items[i].Algo}
				// A whole-batch deadline that fires mid-batch must surface
				// uniformly: items not yet dispatched report the same
				// ctx error a running item does, instead of racing each
				// solver's own ctx checks (a fast solver with an expired
				// ctx could still answer, leaving a mixed envelope).
				if err := ctx.Err(); err != nil {
					br.Err = err
					br.Error = err.Error()
					out[i] = br
					continue
				}
				rep, err := s.solveEntry(ctx, e, items[i].Algo, clampRequest(items[i].Request, d))
				if err != nil {
					br.Err = err
					br.Error = err.Error()
				} else {
					if d.Degraded {
						rep.Degraded = true
					}
					br.Report = &rep
				}
				out[i] = br
			}
		}()
	}
	for i := range items {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return out, nil
}
