package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"waso/internal/admit"
	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/solver"
	"waso/internal/store"
)

// defaultRegions fetches id's region cache for the default objective — the
// per-objective state the pre-objective tests reached via entry.regions.
func defaultRegions(t *testing.T, s *Service, id string) *solver.RegionCache {
	t.Helper()
	s.mu.RLock()
	e := s.graphs[id]
	s.mu.RUnlock()
	if e == nil {
		t.Fatalf("graph %q not resident", id)
	}
	e.objMu.Lock()
	defer e.objMu.Unlock()
	os := e.objs[core.DefaultObjective]
	if os == nil {
		t.Fatalf("graph %q has no default objective state", id)
	}
	return os.regions
}

// pathGraph builds a path 0–1–…–(n−1) with distinct interests and weights,
// so every edge and every mutation target is known to the test.
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInterest(graph.NodeID(i), 1+float64(i%17)/4)
	}
	for i := 0; i < n-1; i++ {
		b.AddEdgeSym(graph.NodeID(i), graph.NodeID(i+1), 1+float64(i%5)/8)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mutationBatches is a deterministic series exercising every op kind
// against a path graph of ≥ 64 nodes, including a node append.
func mutationBatches(n int) [][]graph.Mutation {
	return [][]graph.Mutation{
		{
			{Op: graph.MutSetInterest, U: 5, Eta: 9.5},
			{Op: graph.MutSetInterest, U: 17, Eta: 0.25},
		},
		{{Op: graph.MutAddEdge, U: 2, V: 50, TauOut: 1.5, TauIn: 0.5}},
		{{Op: graph.MutSetTau, U: 2, V: 50, TauOut: 3, TauIn: 3}},
		{
			{Op: graph.MutSetInterest, U: graph.NodeID(n), Eta: 4},
			{Op: graph.MutAddEdge, U: graph.NodeID(n), V: 0, TauOut: 1, TauIn: 1},
		},
		{{Op: graph.MutDelEdge, U: 10, V: 11}},
	}
}

// reportsEqual demands bit-identical answers: same nodes, same willingness
// bits, same sampling trajectory. Pruned depends on the task schedule, so
// callers pin Workers to 1 to make it comparable.
func reportsEqual(a, b core.Report) bool {
	if a.Best.Willingness != b.Best.Willingness ||
		len(a.Best.Nodes) != len(b.Best.Nodes) ||
		a.SamplesDrawn != b.SamplesDrawn || a.Pruned != b.Pruned {
		return false
	}
	for i := range a.Best.Nodes {
		if a.Best.Nodes[i] != b.Best.Nodes[i] {
			return false
		}
	}
	return true
}

// TestMutateInvariance is the correctness core of mutable serving: solves
// against a graph that reached its state through a chain of PATCHes are
// bit-identical to solves against a fresh upload of the same state — the
// delta-updated ranking and surgically invalidated caches are
// indistinguishable from rebuilt ones.
func TestMutateInvariance(t *testing.T) {
	const n = 120
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Load("g", pathGraph(t, n), "test"); err != nil {
		t.Fatal(err)
	}
	for i, muts := range mutationBatches(n) {
		info, err := s.Mutate(ctx, "g", muts, -1)
		if err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
		if info.Version != uint64(i+1) {
			t.Fatalf("mutate %d: version %d", i, info.Version)
		}
		if info.ResidentBytes == 0 {
			t.Fatalf("mutate %d: resident_bytes not reported", i)
		}
	}
	mutated, info, err := s.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != n+1 {
		t.Fatalf("appended node missing: %d nodes", info.Nodes)
	}

	// A second service loads the same final graph as a fresh upload.
	s2 := newTestService(t, Config{})
	if _, err := s2.Load("g", mutated, "test"); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"dgreedy", "cbasnd"} {
		for seed := uint64(1); seed <= 3; seed++ {
			req := core.DefaultRequest(6)
			req.Samples = 20
			req.Starts = 3
			req.Seed = seed
			req.Workers = 1 // one task at a time, in index order: Pruned is deterministic
			got, err := s.Solve(ctx, "g", algo, req)
			if err != nil {
				t.Fatalf("%s/%d mutated solve: %v", algo, seed, err)
			}
			want, err := s2.Solve(ctx, "g", algo, req)
			if err != nil {
				t.Fatalf("%s/%d fresh solve: %v", algo, seed, err)
			}
			if !reportsEqual(got, want) {
				t.Fatalf("%s seed %d: mutated-graph solve %+v != fresh-upload solve %+v",
					algo, seed, got.Best, want.Best)
			}
		}
	}
}

// TestMutateSurgicalRetention is the cache-level acceptance criterion:
// after a τ edit, the region-cache entry whose ball excludes the edited
// nodes survives the mutation (and serves a hit), while the touched entry
// is dropped and re-extracted.
func TestMutateSurgicalRetention(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Load("p", pathGraph(t, 64), "test"); err != nil {
		t.Fatal(err)
	}
	rc := defaultRegions(t, s, "p")
	if rc == nil {
		t.Fatal("region cache not built")
	}
	// Warm two balls: around node 5 and node 40, radius 3. The τ edit on
	// edge (39,40) is 34 hops from node 5 — untouchable — and inside node
	// 40's ball.
	if rc.Acquire(5, 3) == nil || rc.Acquire(40, 3) == nil {
		t.Fatal("warm-up extraction failed")
	}
	muts := []graph.Mutation{{Op: graph.MutSetTau, U: 39, V: 40, TauOut: 9, TauIn: 9}}
	if _, err := s.Mutate(ctx, "p", muts, -1); err != nil {
		t.Fatal(err)
	}
	nrc := defaultRegions(t, s, "p")
	if nrc == rc {
		t.Fatal("region cache not swapped for the mutated graph")
	}
	if got := nrc.Stats().Invalidated; got != 1 {
		t.Fatalf("invalidated = %d, want exactly the touched entry", got)
	}
	before := nrc.Stats()
	if nrc.Acquire(5, 3) == nil {
		t.Fatal("retained region lost")
	}
	after := nrc.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("untouched ball was not a cache hit: before %+v after %+v", before, after)
	}
	if nrc.Acquire(40, 3) == nil {
		t.Fatal("touched region not re-extractable")
	}
	if nrc.Stats().Misses != before.Misses+1 {
		t.Fatal("touched ball should have been dropped and re-extracted")
	}
	// The invalidation shows up in the monotone cross-graph totals.
	if got := s.cacheTotalsNow().regionInvalidated; got != 1 {
		t.Fatalf("cacheTotals invalidated = %d", got)
	}
}

// TestMutateConflict: the optimistic-concurrency handshake.
func TestMutateConflict(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	if _, err := s.Load("g", pathGraph(t, 16), "test"); err != nil {
		t.Fatal(err)
	}
	muts := []graph.Mutation{{Op: graph.MutSetInterest, U: 1, Eta: 2}}
	if _, err := s.Mutate(ctx, "g", muts, 0); err != nil {
		t.Fatalf("if_version 0 against version 0: %v", err)
	}
	if _, err := s.Mutate(ctx, "g", muts, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale if_version: %v, want ErrConflict", err)
	}
	if _, err := s.Mutate(ctx, "g", muts, -1); err != nil {
		t.Fatalf("unconditional mutate: %v", err)
	}
	if _, info, _ := s.Get("g"); info.Version != 2 {
		t.Fatalf("version = %d want 2", info.Version)
	}
}

// TestMutateErrors: validation failures and their sentinel classes.
func TestMutateErrors(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{MaxNodes: 16})
	if _, err := s.Load("g", pathGraph(t, 16), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(ctx, "g", nil, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := s.Mutate(ctx, "nope", []graph.Mutation{{Op: graph.MutSetInterest, U: 0, Eta: 1}}, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown graph: %v", err)
	}
	if _, err := s.Mutate(ctx, "g", []graph.Mutation{{Op: graph.MutDelEdge, U: 0, V: 5}}, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("deleting a non-edge: %v", err)
	}
	grow := []graph.Mutation{
		{Op: graph.MutSetInterest, U: 16, Eta: 1},
		{Op: graph.MutAddEdge, U: 16, V: 0, TauOut: 1, TauIn: 1},
	}
	if _, err := s.Mutate(ctx, "g", grow, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("append past MaxNodes: %v", err)
	}
	if _, info, _ := s.Get("g"); info.Version != 0 {
		t.Fatal("failed mutations must not advance the version")
	}
}

// TestEvictDuringSolveAndMutate is the races satellite: graphs are
// evicted, reloaded and mutated while solves are in flight against them.
// In-flight solves hold their own entry references, so nothing may panic,
// corrupt shared state, or return anything other than a clean answer or
// ErrNotFound. Run with -race.
func TestEvictDuringSolveAndMutate(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Config{})
	base := pathGraph(t, 96)
	if _, err := s.Load("g", base, "test"); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				req := core.DefaultRequest(5)
				req.Samples = 8
				req.Seed = seed + uint64(i)
				_, err := s.Solve(ctx, "g", "cbasnd", req)
				if err != nil && !errors.Is(err, ErrNotFound) {
					fail("solve during churn: %v", err)
				}
			}
		}(uint64(w) * 1000)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		muts := []graph.Mutation{{Op: graph.MutSetInterest, U: 7, Eta: 3}}
		for !stop.Load() {
			if _, err := s.Mutate(ctx, "g", muts, -1); err != nil && !errors.Is(err, ErrNotFound) {
				fail("mutate during churn: %v", err)
			}
		}
	}()
	for i := 0; i < 25 && !stop.Load(); i++ {
		if err := s.Evict("g"); err != nil && !errors.Is(err, ErrNotFound) {
			fail("evict: %v", err)
		}
		if _, err := s.Load("g", base, "test"); err != nil && !errors.Is(err, ErrExists) {
			fail("reload: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestServiceRecovery: the full durable loop through the service — load,
// mutate past the snapshot cadence, restart on the same data dir, recover,
// and solve bit-identically to the pre-restart state.
func TestServiceRecovery(t *testing.T) {
	const n = 120
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Store: st})
	if _, err := s.Load("g", pathGraph(t, n), "test"); err != nil {
		t.Fatal(err)
	}
	for i, muts := range mutationBatches(n) {
		if _, err := s.Mutate(ctx, "g", muts, -1); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	if got := st.Stats().Snapshots; got < 2 {
		t.Fatalf("snapshot cadence never fired: %d snapshots", got)
	}
	req := core.DefaultRequest(6)
	req.Samples = 16
	req.Seed = 11
	req.Workers = 1 // one task at a time, in index order: Pruned is deterministic
	want, err := s.Solve(ctx, "g", "cbasnd", req)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	s2 := newTestService(t, Config{Store: st2})
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "g" || recs[0].Source != "recovered" {
		t.Fatalf("recovered %+v", recs)
	}
	if recs[0].Version != uint64(len(mutationBatches(n))) {
		t.Fatalf("recovered version %d", recs[0].Version)
	}
	got, err := s2.Solve(ctx, "g", "cbasnd", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(got, want) {
		t.Fatalf("post-recovery solve %+v != pre-restart %+v", got.Best, want.Best)
	}
	if s2.Health().Store.ReadOnly || !s2.Health().Store.Durable {
		t.Fatalf("health store section %+v", s2.Health().Store)
	}
	// Mutations continue from the recovered version.
	info, err := s2.Mutate(ctx, "g", []graph.Mutation{{Op: graph.MutSetInterest, U: 3, Eta: 8}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != recs[0].Version+1 {
		t.Fatalf("post-recovery version %d", info.Version)
	}
}

// brownoutFS wraps the real filesystem and fails every write once tripped,
// driving the store's read-only degrade from the service's side.
type brownoutFS struct {
	store.FS
	fail atomic.Bool
}

func (b *brownoutFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := b.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &brownoutFile{File: f, fs: b}, nil
}

type brownoutFile struct {
	store.File
	fs *brownoutFS
}

func (f *brownoutFile) Write(p []byte) (int, error) {
	if f.fs.fail.Load() {
		return 0, fmt.Errorf("injected write failure")
	}
	return f.File.Write(p)
}

// TestMutateStorageDegrade: when the durable layer degrades mid-flight,
// writes surface as *OverloadError with the storage reason (503 +
// Retry-After on the wire), reads and solves keep working, and /healthz
// reports the degrade.
func TestMutateStorageDegrade(t *testing.T) {
	ctx := context.Background()
	ffs := &brownoutFS{FS: store.OSFS{}}
	st, err := store.Open(t.TempDir(), store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := newTestService(t, Config{Store: st})
	if _, err := s.Load("g", pathGraph(t, 32), "test"); err != nil {
		t.Fatal(err)
	}
	ffs.fail.Store(true)
	muts := []graph.Mutation{{Op: graph.MutSetInterest, U: 1, Eta: 2}}
	_, err = s.Mutate(ctx, "g", muts, -1)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != admit.ReasonStorage {
		t.Fatalf("mutate on failing storage: %v, want storage OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatal("storage shed must carry a Retry-After hint")
	}
	// The degrade is sticky: later writes are refused up front.
	if _, err := s.Mutate(ctx, "g", muts, -1); !errors.As(err, &oe) {
		t.Fatalf("mutate after degrade: %v", err)
	}
	if _, err := s.Load("h", pathGraph(t, 8), "test"); !errors.As(err, &oe) {
		t.Fatalf("load after degrade: %v", err)
	}
	if h := s.Health(); !h.Store.ReadOnly || !h.Store.Durable {
		t.Fatalf("health after degrade: %+v", h.Store)
	}
	// The graph's pre-failure state still serves reads and solves.
	if _, info, err := s.Get("g"); err != nil || info.Version != 0 {
		t.Fatalf("resident graph lost after degrade: %+v %v", info, err)
	}
	req := core.DefaultRequest(4)
	req.Samples = 4
	if _, err := s.Solve(ctx, "g", "dgreedy", req); err != nil {
		t.Fatalf("solve after degrade: %v", err)
	}
}
