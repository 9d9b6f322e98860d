package main

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"waso/internal/admit"
	"waso/internal/core"
	"waso/internal/graph"
	"waso/internal/metrics"
	"waso/internal/objective"
	"waso/internal/rng"
	"waso/internal/sampling"
	"waso/internal/service"
	"waso/internal/solver"
	"waso/internal/store"
)

// runTraced is the traced run. It drives the workload over HTTP once (one
// set-up) and checks it as an end-to-end run does, then replays the same
// workload in-process against service.Service, calls the solver, graph and
// store layers directly, records a span around every call, and derives the
// per-layer metrics from the spans and the service's counters. The
// in-process replay is also the reference every HTTP answer must equal.
func runTraced(cfg config) (outcome, map[string]any, error) {
	rec := newRecorder()
	spec, _ := specFor(cfg.workload)
	var g *graph.Graph
	var err error
	rec.do("graph.gen", -1, -1, func() { g, err = spec.Build() })
	if err != nil {
		return outcome{}, nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.seconds, g)
	if err != nil {
		return outcome{}, nil, err
	}
	obj, _ := objective.New(objective.Default)
	var b *objective.Binding
	rec.do("objective.Bind", -1, -1, func() { b = objective.Bind(obj, g) })
	rec.do("solver.NewPrep", -1, -1, func() { solver.NewPrep(b) })

	// The server stays up for the per-request splits, which interleave
	// HTTP and in-process calls so host speed drifts alike on both sides.
	srv, _, err := setupServer(cfg, w)
	if err != nil {
		return outcome{}, nil, err
	}
	defer srv.stop()
	win, err := runWindow(srv, w, true)
	if err != nil {
		return outcome{}, nil, err
	}
	ev, err := evaluate(w, g, []window{win})
	if err != nil {
		return outcome{}, nil, err
	}
	c := newClient(srv.addr, 1)
	defer c.close()

	rp, err := replay(cfg, w, g, rec, ev, httpDoer(c))
	if rp != nil {
		defer rp.close()
	}
	if err != nil {
		return outcome{}, nil, err
	}
	lm, err := layerMetrics(w, g, rec, rp, ev)
	if err != nil {
		return outcome{}, nil, err
	}
	// The traced run reports per-layer metrics only.
	ev.out.Metrics = map[string]metric{}
	for name, m := range lm {
		ev.out.Metrics[name] = m
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return outcome{}, nil, err
	}
	ev.extra["trace_file"] = path
	return ev.finish()
}

// replayed is the state the in-process replay leaves for the metrics.
type replayed struct {
	svc        *service.Service
	dirs       []string
	before     map[string]float64 // service metrics before the timed ops
	after      map[string]float64 // ... and after
	admBefore  admit.Stats
	admAfter   admit.Stats
	snapshots  int           // snapshots the mutate pipeline took when due
	samples    int64         // Workers=1 report counters summed over the
	pruned     int64         // verification solves
	regionsB   int64         // region-cache bytes after the verification solves
	regionsHit bool          // the workload's solves reached the region cache
	drawn      map[int]int64 // samples drawn by each full verification solve
}

func (rp *replayed) close() {
	rp.svc.Close()
	for _, d := range rp.dirs {
		os.RemoveAll(d)
	}
}

// newScratchStore opens a store with fsync off in a fresh directory under
// the output directory.
func (rp *replayed) newScratchStore(cfg config) (*store.Store, error) {
	dir, err := os.MkdirTemp(cfg.out, "store-")
	if err != nil {
		return nil, err
	}
	rp.dirs = append(rp.dirs, dir)
	return store.Open(dir, store.Options{Fsync: store.FsyncOff})
}

// replay runs the workload in-process. pl100k-cbasnd replays the same ops
// under the same closed loop through Service.Solve.
// Churn is replayed in list order: each PATCH goes through Service.Mutate
// and, beside it, through its parts (ApplyMutations, HopDistances,
// Bind+Rescore, CloneFor, Store.Append and Snapshot) on a mirror pipeline,
// and each solve through Service.Solve. Then every
// verification solve runs, one after another, through wasod over HTTP,
// through Service.Solve, and through the solver directly at full budget, at
// zero samples and at one worker.
func replay(cfg config, w *workload, g *graph.Graph, rec *recorder, ev *evaluation, wasod doer) (*replayed, error) {
	rp := &replayed{drawn: map[int]int64{}}
	var st *store.Store
	if w.durable {
		var err error
		if st, err = rp.newScratchStore(cfg); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	// The service as wasod configures it with default flags.
	rp.svc = service.New(service.Config{
		DefaultTimeout: 30 * time.Second,
		MaxNodes:       10_000_000,
		MaxEdges:       50_000_000,
		Admit: admit.Config{
			MaxQueue: 4096, Window: 10 * time.Second,
			DegradeSamples: 200, DegradeStarts: 1, RetryAfter: time.Second,
		},
		Store: st,
	})
	var err error
	rec.do("service.Load", -1, -1, func() { _, err = rp.svc.Load(graphID, g, "perfbench") })
	if err != nil {
		return rp, err
	}
	ctx := context.Background()
	for _, it := range w.warm {
		if _, err := rp.svc.Solve(ctx, graphID, it.Algo, it.Request); err != nil {
			return rp, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	rp.before, rp.admBefore = rp.svc.Metrics().Snapshot(), rp.svc.Admission()
	if w.durable {
		if err := rp.replayChurn(cfg, w, g, rec, ev); err != nil {
			return rp, err
		}
	} else {
		t0 := time.Now()
		res := drive(svcDoer(rp.svc, rec), w.ops, t0, t0.Add(runLimit))
		ans, failed, err := decodeAnswers(w.ops, res)
		if failed > 0 {
			return rp, fmt.Errorf("in-process replay: %d failed: %w", failed, err)
		}
		if len(ans) != len(ev.ans) {
			ev.fail(fmt.Errorf("in-process replay answered %d items, wasod %d", len(ans), len(ev.ans)))
		} else {
			for i := range ans {
				if !sameBest(ans[i].rep.Best, ev.ans[i].rep.Best) {
					ev.fail(fmt.Errorf("item %d (%s): wasod %v, in-process %v", i, ans[i].item.Algo, ev.ans[i].rep.Best, ans[i].rep.Best))
					break
				}
			}
		}
	}
	rp.after, rp.admAfter = rp.svc.Metrics().Snapshot(), rp.svc.Admission()
	for _, key := range []string{"waso_region_cache_hits_total", "waso_region_cache_misses_total"} {
		rp.regionsHit = rp.regionsHit || rp.after[key] > rp.before[key]
	}

	// Per-request decomposition on the final version (the initial one when
	// the churn checks could not rebuild it; the run is failed then).
	final := ev.final
	if final == nil {
		final = g
	}
	e := newEnv(final, 0)
	defer e.close()
	viaHTTP := func(j int, it solveItem) (core.Report, error) {
		status, body, err := wasod(j, solveOp(it))
		if err == nil && status != 200 {
			err = fmt.Errorf("HTTP %d: %s", status, body)
		}
		return core.Report{}, err
	}
	viaService := func(_ int, it solveItem) (core.Report, error) {
		return rp.svc.Solve(ctx, graphID, it.Algo, it.Request)
	}
	viaSolver := func(_ int, it solveItem) (core.Report, error) { return e.solve(it) }
	steps := []struct {
		name string
		edit func(*core.Request)
		do   func(int, solveItem) (core.Report, error)
	}{
		{"wasod.solve", nil, viaHTTP},
		{"service.Solve.seq", nil, viaService},
		{"solver.Solve", nil, viaSolver},
		{"solver.Solve.samples0", func(r *core.Request) { r.Samples = 0 }, viaSolver},
		{"solver.Solve.workers1", func(r *core.Request) { r.Workers = 1 }, viaSolver},
	}
	// Each verification solve goes through every layer back to back, so the
	// host has little time to drift between the layers a split compares.
	root := rec.begin("verify", -1, -1)
	for j, it := range w.verify {
		for _, step := range steps {
			item := it // each step edits its own copy
			if step.edit != nil {
				step.edit(&item.Request)
			}
			var rep core.Report
			var err error
			rec.do(step.name, root, j, func() { rep, err = step.do(j, item) })
			if err != nil {
				return rp, fmt.Errorf("verification solve %d through %s: %w", j, step.name, err)
			}
			switch step.name {
			case "service.Solve.seq":
				if j < len(ev.vans) && !sameBest(rep.Best, ev.vans[j].rep.Best) {
					ev.fail(fmt.Errorf("verification %d (%s): wasod %v, in-process %v", j, it.Algo, ev.vans[j].rep.Best, rep.Best))
				}
			case "solver.Solve":
				rp.drawn[j] = rep.SamplesDrawn
			case "solver.Solve.workers1":
				rp.samples += rep.SamplesDrawn
				rp.pruned += rep.Pruned
			}
		}
	}
	rec.end(root)
	rp.regionsB = e.rc.Stats().Bytes
	if rp.regionsHit {
		cold := solver.NewRegionCache(e.b, 0)
		k := w.verify[0].Request.K
		for _, s := range e.prep.Starts(topStarts) {
			rec.do("solver.regions.extract", -1, -1, func() { cold.Acquire(s, k-1) })
		}
	}
	return rp, nil
}

// svcDoer carries out solves through the in-process service, recording a
// span per call, and encodes the reports as wasod would so the same
// decoding and checks apply.
func svcDoer(svc *service.Service, rec *recorder) doer {
	return func(i int, o op) (int, []byte, error) {
		if o.kind != opSolve {
			return 0, nil, fmt.Errorf("op kind %s is not replayed through svcDoer", o.kind)
		}
		var rep core.Report
		var err error
		rec.do("service.Solve", -1, i, func() {
			rep, err = svc.Solve(context.Background(), graphID, o.item.Algo, o.item.Request)
		})
		if err != nil {
			return 500, nil, err
		}
		return 200, mustJSON(map[string]any{"graph": graphID, "report": rep}), nil
	}
}

// mutPipe mirrors Service.Mutate step by step on its own graph, ranking,
// region cache and scratch store, so each layer's share gets its own span.
type mutPipe struct {
	obj  objective.Objective
	g    *graph.Graph
	prep *solver.Prep
	rc   *solver.RegionCache
	st   *store.Store
	k    int
}

// warm fills the region cache with the current top starts' balls, as the
// solves between two PATCHes do on the service.
func (p *mutPipe) warm(rec *recorder, parent, i int) {
	rec.do("solver.regions.Acquire", parent, i, func() {
		for _, s := range p.prep.Starts(topStarts) {
			p.rc.Acquire(s, p.k-1)
		}
	})
}

func (p *mutPipe) apply(rec *recorder, parent, i int, muts []graph.Mutation) (snapped bool, err error) {
	var newG *graph.Graph
	var touched []graph.NodeID
	rec.do("graph.ApplyMutations", parent, i, func() { newG, touched, err = p.g.ApplyMutations(muts) })
	if err != nil {
		return false, err
	}
	maxR := p.rc.MaxRadius()
	var distOld, distNew map[graph.NodeID]int
	rec.do("graph.HopDistances", parent, i, func() { distOld = p.g.HopDistances(touched, maxR) })
	rec.do("graph.HopDistances", parent, i, func() { distNew = newG.HopDistances(touched, maxR) })
	keep := func(start graph.NodeID, radius int) bool {
		if d, ok := distOld[start]; ok && d <= radius {
			return false
		}
		d, ok := distNew[start]
		return !ok || d > radius
	}
	var nb *objective.Binding
	rec.do("solver.Rescore", parent, i, func() {
		nb = objective.Bind(p.obj, newG)
		p.prep = p.prep.Rescore(nb, touched)
	})
	rec.do("solver.regions.CloneFor", parent, i, func() { p.rc = p.rc.CloneFor(nb, keep) })
	var due bool
	rec.do("store.Append", parent, i, func() { due, err = p.st.Append(graphID, uint64(i+1), muts) })
	if err != nil {
		return false, err
	}
	if due {
		rec.do("store.Snapshot", parent, i, func() { err = p.st.Snapshot(graphID, newG, uint64(i+1)) })
	}
	p.g = newG
	return due, err
}

// replayChurn replays churn in list order; every solve must equal its HTTP
// answer, on the same graph version, bit for bit.
func (rp *replayed) replayChurn(cfg config, w *workload, g *graph.Graph, rec *recorder, ev *evaluation) error {
	st, err := rp.newScratchStore(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	obj := mustDefault()
	b := objective.Bind(obj, g)
	p := &mutPipe{obj: obj, g: g, prep: solver.NewPrep(b), rc: solver.NewRegionCache(b, 0), st: st, k: w.verify[0].Request.K}
	rec.do("store.Create", -1, -1, func() { err = st.Create(graphID, g) })
	if err != nil {
		return err
	}
	ctx := context.Background()
	next, v := 0, 0 // the next HTTP answer; PATCHes replayed
	for i, o := range w.ops {
		if o.kind == opSolve {
			var rep core.Report
			rec.do("service.Solve", -1, i, func() { rep, err = rp.svc.Solve(ctx, graphID, o.item.Algo, o.item.Request) })
			if err != nil {
				return err
			}
			if next < len(ev.ans) && ev.ans[next].res == i {
				if a := ev.ans[next]; !sameBest(rep.Best, a.rep.Best) {
					ev.fail(fmt.Errorf("churn solve %d (%s) on version %d: wasod %v, in-process %v", i, o.item.Algo, v, a.rep.Best, rep.Best))
				}
				next++
			}
			continue
		}
		muts, err := typedMutations(o.muts)
		if err != nil {
			return err
		}
		root := rec.begin("patch", -1, v)
		p.warm(rec, root, v)
		rec.do("service.Mutate", root, v, func() { _, err = rp.svc.Mutate(ctx, graphID, muts, -1) })
		if err != nil {
			return fmt.Errorf("replay PATCH %d: %w", v, err)
		}
		snapped, err := p.apply(rec, root, v, muts)
		rec.end(root)
		if err != nil {
			return fmt.Errorf("mirror PATCH %d: %w", v, err)
		}
		if snapped {
			rp.snapshots++
		}
		v++
	}
	// One more snapshot and encode of the final version, so the snapshot
	// cost is measured even when the run was shorter than the cadence.
	rec.do("graph.Encode", -1, -1, func() { err = graph.Encode(io.Discard, p.g) })
	if err != nil {
		return err
	}
	rec.do("store.Snapshot", -1, -1, func() { err = st.Snapshot(graphID, p.g, uint64(v)) })
	return err
}

// layerMetrics derives every per-layer metric. A layer the workload does
// not reach reports 0.
func layerMetrics(w *workload, g *graph.Graph, rec *recorder, rp *replayed, ev *evaluation) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = newMetric(v, unit) }
	p50 := func(name string) float64 { return median(rec.durations(name)) }
	delta := func(key string) float64 { return rp.after[key] - rp.before[key] }

	// Sequential one-client splits of a solve, over the verification list.
	httpP50, svcP50, solverP50 := p50("wasod.solve"), p50("service.Solve.seq"), p50("solver.Solve")
	put("wasod.solve_seq_p50_ms", "ms", httpP50)
	put("wasod.self_p50_ms", "ms", httpP50-svcP50)
	put("service.solve_seq_p50_ms", "ms", svcP50)
	put("service.self_p50_ms", "ms", svcP50-solverP50)
	put("solver.solve_seq_p50_ms", "ms", solverP50)
	full, greedy := rec.byReq("solver.Solve"), rec.byReq("solver.Solve.samples0")
	var sampleMS, usPer []float64
	for j, f := range full {
		sampleMS = append(sampleMS, f-greedy[j])
		if n := rp.drawn[j]; n > 0 {
			usPer = append(usPer, (f-greedy[j])*1e3/float64(n))
		}
	}
	put("solver.greedy_ms", "ms", p50("solver.Solve.samples0"))
	put("solver.sample_ms", "ms", median(sampleMS))
	put("solver.us_per_sample", "us", median(usPer))
	put("solver.samples", "count", float64(rp.samples))
	put("solver.pruned", "count", float64(rp.pruned))
	put("solver.prune_ratio", "ratio", float64(rp.pruned)/float64(rp.samples))

	// Set-up layers.
	put("graph.gen_ms", "ms", p50("graph.gen"))
	put("objective.bind_ms", "ms", p50("objective.Bind"))
	put("solver.rank_ms", "ms", p50("objective.Bind")+p50("solver.NewPrep"))
	put("store.create_ms", "ms", p50("store.Create"))

	// Counters of the service replay.
	put("admit.admitted", "count", float64(rp.admAfter.Accepted-rp.admBefore.Accepted))
	put("admit.shed", "count", float64(rp.admAfter.ShedTotal-rp.admBefore.ShedTotal))
	put("admit.degraded", "count", float64(rp.admAfter.Degraded-rp.admBefore.Degraded))
	put("solver.executor.tasks", "count", delta("waso_executor_tasks_total"))
	put("solver.executor.tasks_expired", "count", delta("waso_executor_tasks_expired_total"))
	qw, err := histDelta(rp.before, rp.after, "waso_executor_queue_wait_seconds")
	if err != nil {
		return nil, err
	}
	put("solver.executor.queue_wait_p50_ms", "ms", qw.Percentile(50)*1e3)
	put("solver.executor.queue_wait_p99_ms", "ms", qw.Percentile(99)*1e3)
	hits, misses := delta("waso_region_cache_hits_total"), delta("waso_region_cache_misses_total")
	put("solver.regions.hit_ratio", "ratio", hits/(hits+misses))
	put("solver.regions.invalidations", "count", delta("waso_region_cache_invalidations_total"))
	put("solver.regions.bytes", "B", float64(rp.regionsB))
	put("solver.regions.extract_ms", "ms", p50("solver.regions.extract"))
	put("solver.pool.alloc_ratio", "ratio", delta("waso_workspace_pool_allocs_total")/delta("waso_workspace_pool_gets_total"))

	// The write path, from the serialized churn replay.
	mutate, parts := rec.byReq("service.Mutate"), map[int]float64{}
	for _, name := range []string{"graph.ApplyMutations", "graph.HopDistances", "solver.Rescore",
		"solver.regions.CloneFor", "store.Append", "store.Snapshot"} {
		for i, ms := range rec.byReq(name) {
			if i >= 0 {
				parts[i] += ms
			}
		}
	}
	var self []float64
	for i, ms := range mutate {
		self = append(self, ms-parts[i])
	}
	put("service.mutate_p50_ms", "ms", p50("service.Mutate"))
	put("service.mutate_self_ms", "ms", median(self))
	put("graph.apply_ms", "ms", p50("graph.ApplyMutations"))
	hop := slices.Collect(maps.Values(rec.byReq("graph.HopDistances")))
	put("graph.hop_ms", "ms", median(hop))
	put("solver.rescore_ms", "ms", p50("solver.Rescore"))
	put("solver.regions.clone_ms", "ms", p50("solver.regions.CloneFor"))
	put("store.append_ms", "ms", p50("store.Append"))
	put("store.snapshot_ms", "ms", p50("store.Snapshot"))
	put("store.snapshots", "count", float64(rp.snapshots))
	put("graph.encode_ms", "ms", p50("graph.Encode"))

	// Sampler kernels at the sizes this workload's growth loop sees.
	k := w.verify[0].Request.K
	small := int(math.Round(float64(k) * g.AvgDegree()))
	top := g.Degree(solver.NewPrep(objective.Bind(mustDefault(), g)).Starts(1)[0])
	fen, lin := drawNS(small)
	put("sampling.fenwick_draw_ns", "ns", fen)
	put("sampling.linear_draw_ns", "ns", lin)
	fen, lin = drawNS(max(top, 1))
	put("sampling.fenwick_draw_top_ns", "ns", fen)
	put("sampling.linear_draw_top_ns", "ns", lin)

	put("loadgen.conns", "count", float64(ev.extra["loadgen.conns"].(int64)))
	return out, nil
}

func mustDefault() objective.Objective {
	obj, err := objective.New(objective.Default)
	if err != nil {
		panic(err) // the default objective is always registered
	}
	return obj
}

// histDelta rebuilds a histogram from its cumulative _bucket series in two
// registry snapshots and returns the observations between them.
func histDelta(before, after map[string]float64, name string) (metrics.HistogramSnapshot, error) {
	read := func(snap map[string]float64) (metrics.HistogramSnapshot, error) {
		type bucket struct{ le, cum float64 }
		var bs []bucket
		prefix := name + `_bucket{le="`
		for key, v := range snap {
			rest, ok := strings.CutPrefix(key, prefix)
			if !ok {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				return metrics.HistogramSnapshot{}, fmt.Errorf("%s: bucket %q: %w", name, key, err)
			}
			bs = append(bs, bucket{le, v})
		}
		slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
		if len(bs) < 2 {
			return metrics.HistogramSnapshot{}, fmt.Errorf("%s: no buckets in the registry", name)
		}
		h := metrics.HistogramSnapshot{Counts: make([]uint64, len(bs))}
		prev := 0.0
		for i, bk := range bs {
			if i < len(bs)-1 {
				h.Bounds = append(h.Bounds, bk.le)
			}
			h.Counts[i] = uint64(bk.cum - prev)
			h.Count += h.Counts[i]
			prev = bk.cum
		}
		return h, nil
	}
	a, err := read(after)
	if err != nil {
		return a, err
	}
	b, err := read(before)
	if err != nil {
		return a, err
	}
	return a.Sub(b), nil
}

// drawNS times one Fenwick Sample+Set cycle and one linear WeightedIndex
// draw over size weights, each as the median of five 10 ms batches.
func drawNS(size int) (fenwick, linear float64) {
	r := rng.New(uint64(size))
	weights := make([]float64, size)
	f := sampling.NewFenwick(size)
	for i := range weights {
		weights[i] = r.Float64() + 1e-3
		f.Set(i, weights[i])
	}
	timeIt := func(step func()) float64 {
		var per []float64
		for range 5 {
			n, t := 0, time.Now()
			for time.Since(t) < 10*time.Millisecond {
				for range 256 {
					step()
				}
				n += 256
			}
			per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
		}
		return median(per)
	}
	fenwick = timeIt(func() {
		i, _ := f.Sample(r) // weights stay positive, so the draw cannot fail
		f.Set(i, r.Float64()+1e-3)
	})
	linear = timeIt(func() { sampling.WeightedIndex(r, weights) })
	return fenwick, linear
}
