package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/solver"
)

// wRelTol is how far a reported willingness may sit from the value the
// benchmark recomputes from scratch (summation order differs).
const wRelTol = 1e-9

// env is an in-process solve environment over one graph: the default
// objective's binding and ranking, a workspace pool, a region cache and an
// executor, attached the way the service attaches its own.
type env struct {
	g    *graph.Graph
	b    *objective.Binding
	prep *solver.Prep
	pool *solver.WorkspacePool
	rc   *solver.RegionCache
	ex   *solver.Executor
	ctx  context.Context
}

func newEnv(g *graph.Graph, workers int) *env {
	obj, err := objective.New(objective.Default)
	if err != nil {
		panic(err) // the default objective is always registered
	}
	e := &env{g: g, b: objective.Bind(obj, g)}
	e.prep = solver.NewPrep(e.b)
	e.pool = solver.NewWorkspacePool(g)
	e.rc = solver.NewRegionCache(e.b, 0)
	e.ex = solver.NewExecutor(workers)
	ctx := solver.WithPrep(context.Background(), e.prep)
	ctx = solver.WithWorkspacePool(ctx, e.pool)
	ctx = solver.WithRegionCache(ctx, e.rc)
	e.ctx = solver.WithExecutor(ctx, e.ex)
	return e
}

func (e *env) close() { e.ex.Close() }

func (e *env) solve(it solveItem) (core.Report, error) {
	sv, err := solver.New(it.Algo)
	if err != nil {
		return core.Report{}, err
	}
	return sv.Solve(e.ctx, e.g, it.Request)
}

// solveAll solves every item in-process on `par` goroutines.
func (e *env) solveAll(items []solveItem, par int) ([]core.Report, error) {
	out := make([]core.Report, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for w := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(items); i += par {
				out[i], errs[i] = e.solve(items[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("in-process solve %d (%s): %w", i, items[i].Algo, err)
		}
	}
	return out, nil
}

// checkBest verifies one answer against the graph it was solved on: at most
// k distinct nodes, connected, and a willingness equal to the objective
// recomputed from scratch.
func checkBest(b *objective.Binding, k int, best core.Solution) error {
	nodes := best.Nodes
	if len(nodes) == 0 || len(nodes) > k {
		return fmt.Errorf("group of %d nodes for k=%d", len(nodes), k)
	}
	s := slices.Clone(nodes)
	slices.Sort(s)
	if len(slices.Compact(s)) != len(nodes) || s[0] < 0 || int(s[len(s)-1]) >= b.Graph().N() {
		return fmt.Errorf("group %v has repeated or unknown nodes", nodes)
	}
	if !b.Graph().Connected(nodes) {
		return fmt.Errorf("group %v is not connected", nodes)
	}
	if w := b.Value(nodes); math.Abs(w-best.Willingness) > wRelTol*math.Max(1, math.Abs(w)) {
		return fmt.Errorf("group %v reports W=%v, recomputed %v", nodes, best.Willingness, w)
	}
	return nil
}

// sameBest reports whether two answers are bit-identical.
func sameBest(a, b core.Solution) bool {
	return a.Equal(b) && math.Float64bits(a.Willingness) == math.Float64bits(b.Willingness)
}

// answer is one solved item taken from a response.
type answer struct {
	item solveItem
	rep  core.Report
	res  int // index of the op result it came from
}

// decodeAnswers pulls the solved item out of every ok solve response and
// counts every failed op.
func decodeAnswers(ops []op, res []result) (ans []answer, failed int, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, r := range res {
		if !r.ok() {
			fail(fmt.Errorf("%s %d: %s", ops[i].kind, i, r.err))
			continue
		}
		if ops[i].kind != opSolve {
			continue
		}
		var sr struct {
			Report core.Report `json:"report"`
		}
		if err := json.Unmarshal(r.body, &sr); err != nil {
			fail(fmt.Errorf("solve %d: decode: %w", i, err))
			continue
		}
		ans = append(ans, answer{item: ops[i].item, rep: sr.Report, res: i})
	}
	return ans, failed, firstErr
}

// checkAgainst checks every answer on b and against the in-process
// reference reports ref (ref[i] answers ans[i]).
func checkAgainst(b *objective.Binding, ans []answer, ref []core.Report) error {
	for i, a := range ans {
		if err := checkBest(b, a.item.Request.K, a.rep.Best); err != nil {
			return fmt.Errorf("answer %d (%s): %w", i, a.item.Algo, err)
		}
		if !sameBest(a.rep.Best, ref[i].Best) {
			return fmt.Errorf("answer %d (%s): wasod %v, in-process %v", i, a.item.Algo, a.rep.Best, ref[i].Best)
		}
	}
	return nil
}
