package solver

import (
	"context"
	"sync"
	"sync/atomic"

	"waso/internal/core"
	"waso/internal/graph"
)

// WorkspacePool recycles per-task solver workspaces — the O(n) scratch
// state (bitsets, frontier slots, Fenwick tree) every running task needs —
// across Solve calls against one graph. A long-lived caller that solves many
// requests against the same resident graph (the wasod serving path) keeps
// one pool per graph and attaches it with WithWorkspacePool; tasks then
// draw warm buffers instead of allocating O(n) per request. Safe for
// concurrent use; a pooled workspace is re-parameterized per request
// (k, alpha, sampler backend), so requests with different tuning share the
// same buffers.
type WorkspacePool struct {
	g    *graph.Graph
	pool sync.Pool

	gets   atomic.Uint64 // workspaces handed out
	allocs atomic.Uint64 // of those, freshly allocated (pool misses)
}

// NewWorkspacePool returns an empty pool of workspaces for g. Pooled
// workspaces are allocated at full graph capacity so they can serve both
// whole-graph tasks and any region task (regions never exceed the graph).
func NewWorkspacePool(g *graph.Graph) *WorkspacePool {
	wp := &WorkspacePool{g: g}
	wp.pool.New = func() any {
		wp.allocs.Add(1)
		return newWorkspace(g.N())
	}
	return wp
}

// WorkspacePoolStats counts pool traffic: Gets is how many workspaces were
// handed out, Allocs how many of those had to be freshly allocated (pool
// misses — Gets−Allocs is the O(n) allocations the pool saved). Counters
// are cumulative and safe to read concurrently.
type WorkspacePoolStats struct {
	Gets   uint64
	Allocs uint64
}

// Stats returns the pool's cumulative traffic counters.
func (wp *WorkspacePool) Stats() WorkspacePoolStats {
	return WorkspacePoolStats{Gets: wp.gets.Load(), Allocs: wp.allocs.Load()}
}

// Graph returns the graph this pool allocates workspaces for.
func (wp *WorkspacePool) Graph() *graph.Graph { return wp.g }

// get returns a workspace configured for req. The caller must put it back.
func (wp *WorkspacePool) get(req core.Request, topSum []float64, useFen bool) *workspace {
	wp.gets.Add(1)
	ws := wp.pool.Get().(*workspace)
	ws.configure(req, topSum, useFen)
	return ws
}

// put returns a workspace to the pool. The workspace's sparse state (set,
// touched, slot lists) stays as the last growth left it — the next growth's
// reset clears it in O(touched), exactly as between samples. The substrate
// binding and per-solve shared state are dropped so a pooled workspace
// never pins a Region (or an incumbent) past its request — the next task
// rebinds before growing.
func (wp *WorkspacePool) put(ws *workspace) {
	ws.sub = substrate{}
	ws.toGlobal = nil
	ws.inc = nil
	ws.topSum = nil
	wp.pool.Put(ws)
}

// poolCtxKey carries a *WorkspacePool through a context.
type poolCtxKey struct{}

// WithWorkspacePool returns a context carrying wp. A Solve whose context
// carries a pool for the same graph draws worker workspaces from it instead
// of allocating fresh ones — the mechanism the service layer uses to stop
// per-request O(n) allocation.
func WithWorkspacePool(ctx context.Context, wp *WorkspacePool) context.Context {
	return context.WithValue(ctx, poolCtxKey{}, wp)
}

// workspacePoolFor returns the context's pool when it matches g, else nil.
func workspacePoolFor(ctx context.Context, g *graph.Graph) *WorkspacePool {
	if wp, ok := ctx.Value(poolCtxKey{}).(*WorkspacePool); ok && wp != nil && wp.g == g {
		return wp
	}
	return nil
}
