package solver

import (
	"context"
	"fmt"
	"testing"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/rng"
)

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := gen.PreferentialAttachment(n, 4, gen.DefaultScores(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSolvers times one full Solve per iteration on a 1k-node
// power-law instance (k=10, 50 samples per start, single worker so the
// numbers measure algorithmic cost, not parallel speedup).
func BenchmarkSolvers(b *testing.B) {
	ctx := context.Background()
	g := benchGraph(b, 1000)
	for _, s := range All() {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := core.DefaultRequest(10)
				r.Samples = 50
				r.Seed = uint64(i)
				r.Workers = 1
				if _, err := s.Solve(ctx, g, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolvePrepped measures the serving-path win of a shared Prep: one
// Solve per iteration with the NodeScore ranking precomputed once, the way
// the service layer issues requests against a cached graph.
func BenchmarkSolvePrepped(b *testing.B) {
	g := benchGraph(b, 1000)
	ctx := WithPrep(context.Background(), testPrep(g))
	r := core.DefaultRequest(10)
	r.Samples = 50
	r.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed = uint64(i)
		if _, err := (CBASND{}).Solve(ctx, g, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeGraph is the production-scale trajectory benchmark: a
// 100k-node power-law instance, worker-scaling sweep 1/2/4/8 for the
// sample-chunk scheduler, and prepped vs unprepped solves (the serving
// path always runs prepped). GOMAXPROCS is raised to the top of the sweep
// for the duration, and the solves run on their own executor of that size,
// so worker counts are not clamped on small runners; on machines with fewer
// cores the high-worker rows measure scheduling overhead rather than
// speedup. CI runs this at -benchtime=20x as a build-and-run guard (not a
// threshold gate); cmd/wasobench is the JSON-emitting harness over the same
// sweep.
func BenchmarkLargeGraph(b *testing.B) {
	const n = 100_000
	g := benchGraph(b, n)
	prep := testPrep(g)
	exCtx := executorContext(b, 8)
	ctx := WithPrep(exCtx, prep)
	base := core.DefaultRequest(10)
	base.Samples = 50

	for _, algo := range []Solver{CBAS{}, CBASND{}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/%s/workers=%d", n, algo.Name(), workers), func(b *testing.B) {
				r := base
				r.Workers = workers
				for i := 0; i < b.N; i++ {
					r.Seed = uint64(i)
					if _, err := algo.Solve(ctx, g, r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Unprepped: each Solve pays the per-call partial NodeScore ranking,
	// the cost WithPrep amortizes away for resident graphs.
	b.Run(fmt.Sprintf("n=%d/cbasnd/workers=1/unprepped", n), func(b *testing.B) {
		r := base
		r.Workers = 1
		for i := 0; i < b.N; i++ {
			r.Seed = uint64(i)
			if _, err := (CBASND{}).Solve(exCtx, g, r); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Region showcase: a sparse instance at small k, where the (k−1)-hop
	// balls are a few hundred nodes — the serving shape region mode exists
	// for. auto runs against a warm per-graph RegionCache (the wasod
	// path); off walks the whole 100k-node CSR per sample.
	er, err := gen.Spec{Kind: "er", N: n, AvgDeg: 8, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	erCtx := WithRegionCache(WithPrep(exCtx, testPrep(er)), testCache(er, 0))
	for _, mode := range []core.RegionMode{core.RegionAuto, core.RegionOff} {
		b.Run(fmt.Sprintf("n=%d/gen=er/k=4/cbasnd/workers=1/regions=%s", n, mode), func(b *testing.B) {
			r := core.DefaultRequest(4)
			r.Samples = 50
			r.Workers = 1
			r.Region = mode
			for i := 0; i < b.N; i++ {
				r.Seed = uint64(i)
				if _, err := (CBASND{}).Solve(erCtx, er, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrowth isolates one sample growth (the inner loop of every
// randomized solver) without the multi-start scaffolding.
func BenchmarkGrowth(b *testing.B) {
	g := benchGraph(b, 1000)
	start := PickStarts(context.Background(), g, 1)[0]
	prep := testPrep(g)
	for _, mode := range []string{"uniform", "weighted-linear", "weighted-fenwick", "greedy"} {
		b.Run(mode, func(b *testing.B) {
			r := core.DefaultRequest(10)
			if mode == "weighted-fenwick" {
				r.Sampler = core.SamplerFenwick
			} else {
				r.Sampler = core.SamplerLinear
			}
			ws := newWorkspace(g.N())
			ws.configure(r, prep.topSums(10), r.Sampler == core.SamplerFenwick)
			ws.bindGraph(bindingSubstrate(testBind(g)))
			root := rng.New(7)
			for i := 0; i < b.N; i++ {
				stream := root.SplitN(0, uint64(i))
				switch mode {
				case "uniform":
					ws.growUniform(start, stream, 0, false)
				case "greedy":
					ws.growGreedy(start)
				default:
					ws.growWeighted(start, stream, weightDeltaPow, 0, false)
				}
			}
		})
	}
}
