package solver

import (
	"context"
	"testing"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/objective"
)

// erInstance builds a sparse Erdős–Rényi graph: low average degree keeps
// (k−1)-hop balls well below the component size, so the region path is
// exercised with genuinely compact, remapped instances (unlike power-law
// graphs, where the ball saturates at the component and the remap is
// near-identity).
func erInstance(t testing.TB, n int, avgDeg float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.Spec{Kind: "er", N: n, AvgDeg: avgDeg, Seed: seed}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRegionEquivalence is the property the tentpole stands on, checked per
// registered objective: for every solver, Report.Best (node set AND
// willingness bits) and SamplesDrawn are identical between region mode and
// whole-graph mode, across 20 seeds and workers ∈ {1, 4}. Graph shapes
// alternate between sparse ER (balls ≪ component: real remapping,
// fragmented components, isolated starts) and power-law (balls =
// component), and k alternates so radii vary. Region extraction copies an
// objective's fused slabs into the compact instance, so a per-objective
// run is the only thing that catches a slab/remap mismatch.
func TestRegionEquivalence(t *testing.T) {
	ctx := executorContext(t, 4)

	const seeds = 20
	for _, objName := range objective.Names() {
		t.Run(objName, func(t *testing.T) {
			for _, s := range All() {
				for seed := uint64(0); seed < seeds; seed++ {
					var g *graph.Graph
					if seed%2 == 0 {
						g = erInstance(t, 400, 2.5, 300+seed)
					} else {
						g = powerlawInstance(t, 400, 300+seed)
					}
					k := 4 + int(seed%2)*4 // k ∈ {4, 8} → radius ∈ {3, 7}
					base := req(k, func(r *core.Request) {
						r.Samples = 25
						r.Starts = 6
						r.Seed = seed
						r.Region = core.RegionOff
						r.Objective = objName
					})
					for _, workers := range []int{1, 4} {
						off := base
						off.Workers = workers
						want, err := s.Solve(ctx, g, off)
						if err != nil {
							t.Fatalf("%s seed=%d workers=%d region=off: %v", s.Name(), seed, workers, err)
						}
						on := base
						on.Workers = workers
						on.Region = core.RegionAlways
						got, err := s.Solve(ctx, g, on)
						if err != nil {
							t.Fatalf("%s seed=%d workers=%d region=always: %v", s.Name(), seed, workers, err)
						}
						if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness {
							t.Errorf("%s seed=%d workers=%d: region best %v != whole-graph best %v",
								s.Name(), seed, workers, got.Best, want.Best)
						}
						if got.SamplesDrawn != want.SamplesDrawn {
							t.Errorf("%s seed=%d workers=%d: region drew %d samples, whole-graph drew %d",
								s.Name(), seed, workers, got.SamplesDrawn, want.SamplesDrawn)
						}
					}
				}
			}
		})
	}
}

// TestRegionAutoParity: auto mode — capped extraction with per-start
// fallback — matches both forced modes on a graph where the heuristic
// engages (sparse, small k) and on one where it skips (dense, large k).
func TestRegionAutoParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"sparse-engaged", erInstance(t, 600, 2, 77), 4},
		{"dense-skipped", powerlawInstance(t, 600, 78), 12},
	} {
		for _, s := range All() {
			base := req(tc.k, func(r *core.Request) { r.Samples = 20; r.Seed = 5 })
			results := map[core.RegionMode]core.Report{}
			for _, mode := range []core.RegionMode{core.RegionOff, core.RegionAuto, core.RegionAlways} {
				r := base
				r.Region = mode
				rep, err := s.Solve(ctx, tc.g, r)
				if err != nil {
					t.Fatalf("%s %s region=%s: %v", tc.name, s.Name(), mode, err)
				}
				results[mode] = rep
			}
			want := results[core.RegionOff]
			for _, mode := range []core.RegionMode{core.RegionAuto, core.RegionAlways} {
				got := results[mode]
				if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness {
					t.Errorf("%s %s: region=%s best %v != off best %v",
						tc.name, s.Name(), mode, got.Best, want.Best)
				}
			}
		}
	}
}

// TestRegionCacheSolve: a context-attached RegionCache must not change any
// result, must actually get hit across repeated solves, and must serve
// requests with different budgets and α from the same entries.
func TestRegionCacheSolve(t *testing.T) {
	ctx := context.Background()
	g := erInstance(t, 600, 2, 21)
	rc := testCache(g, 0)
	cached := WithRegionCache(ctx, rc)
	for round := 0; round < 3; round++ {
		for _, alpha := range []float64{1, 3} {
			r := req(4, func(r *core.Request) { r.Samples = 15; r.Seed = 9; r.Alpha = alpha })
			want, err := (CBASND{}).Solve(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (CBASND{}).Solve(cached, g, r)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Best.Equal(want.Best) || got.Best.Willingness != want.Best.Willingness {
				t.Errorf("round %d alpha=%g: cached %v != direct %v", round, alpha, got.Best, want.Best)
			}
		}
	}
	cs := rc.Stats()
	if cs.Misses == 0 || cs.Entries == 0 {
		t.Fatalf("cache never filled: %+v", cs)
	}
	if cs.Hits == 0 {
		t.Errorf("repeated solves never hit the cache (misses=%d)", cs.Misses)
	}
	// Same starts, same radius: every solve after the first is all hits,
	// so misses stay at one per start (DefaultStarts = 8).
	if cs.Misses > 8 {
		t.Errorf("misses = %d, want at most one per start", cs.Misses)
	}
	// A cache for a different graph must be ignored, not misapplied.
	other := erInstance(t, 300, 2, 22)
	r := req(4, func(r *core.Request) { r.Samples = 10; r.Seed = 3 })
	got, err := (CBAS{}).Solve(cached, other, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (CBAS{}).Solve(ctx, other, r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Best.Equal(want.Best) {
		t.Errorf("foreign cache affected another graph: %v vs %v", got.Best, want.Best)
	}
}

// TestRegionCacheLRU: the cache holds at most its configured entries,
// evicting least-recently-used keys, and caches negative results.
func TestRegionCacheLRU(t *testing.T) {
	g := erInstance(t, 200, 2, 31)
	rc := testCache(g, 2)
	a := rc.Acquire(0, 2)
	rc.Acquire(1, 2)
	if st := rc.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	rc.Acquire(0, 2) // refresh 0 → 1 is now LRU
	rc.Acquire(2, 2) // evicts 1
	st := rc.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 after eviction", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	hitsBefore := st.Hits
	if got := rc.Acquire(0, 2); got != a {
		t.Error("refreshed entry was evicted instead of the LRU one")
	}
	rc.Acquire(1, 2) // re-extracted: must be a miss
	st = rc.Stats()
	if st.Hits != hitsBefore+1 {
		t.Errorf("hits %d → %d, want one hit for the refreshed key", hitsBefore, st.Hits)
	}
	if st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (three first-touches plus one re-extraction)", st.Misses)
	}

	// Byte budget: a cache whose resident regions exceed its byte bound
	// evicts LRU entries even when the entry cap has room.
	rcBytes := testCache(g, 100)
	rcBytes.maxBytes = 1 // any real region busts it
	rcBytes.Acquire(0, 2)
	rcBytes.Acquire(1, 2)
	if st := rcBytes.Stats(); st.Entries != 1 {
		t.Errorf("byte-budget cache holds %d entries, want 1 (always keeps the newest)", st.Entries)
	}

	// Negative caching: a ball over the auto cap is remembered as nil.
	dense := powerlawInstance(t, 200, 32)
	rcDense := testCache(dense, 4)
	if r := rcDense.Acquire(0, 10); r != nil {
		t.Fatalf("10-hop ball on a 200-node power-law graph fit cap %d?", autoRegionCap(dense.N()))
	}
	if r := rcDense.Acquire(0, 10); r != nil {
		t.Fatal("negative entry not cached")
	}
	if st := rcDense.Stats(); st.Hits != 1 || st.Misses != 1 || st.NegativeHits != 1 {
		t.Errorf("negative caching: hits=%d misses=%d neghits=%d, want 1/1/1",
			st.Hits, st.Misses, st.NegativeHits)
	}
}

// TestRegionCacheConcurrent hammers one cache from many goroutines under
// -race while solves consume it.
func TestRegionCacheConcurrent(t *testing.T) {
	ctx := context.Background()
	g := erInstance(t, 400, 2, 41)
	rc := testCache(g, 8)
	cached := WithRegionCache(ctx, rc)
	r := req(4, func(r *core.Request) { r.Samples = 10; r.Seed = 2 })
	want, err := (CBAS{}).Solve(ctx, g, r)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			got, err := (CBAS{}).Solve(cached, g, r)
			if err == nil && !got.Best.Equal(want.Best) {
				t.Error("concurrent cached solve diverged")
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartialPrep: the per-call heap selection must reproduce the full
// ranking's first t entries and prefix sums bit-for-bit, for every t.
func TestPartialPrep(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		var g *graph.Graph
		if seed%2 == 0 {
			g = powerlawInstance(t, 257, 500+seed)
		} else {
			g = erInstance(t, 257, 4, 500+seed)
		}
		full := testPrep(g)
		for _, tt := range []int{1, 2, 7, 64, g.N(), g.N() + 10} {
			partial := newPartialPrep(testBind(g), tt)
			want := full.Starts(tt)
			got := partial.Starts(min(tt, g.N()))
			if len(got) != len(want) {
				t.Fatalf("seed=%d t=%d: %d ranked, want %d", seed, tt, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d t=%d: ranked[%d] = %d, want %d", seed, tt, i, got[i], want[i])
				}
			}
			kMax := min(tt, g.N())
			wantSums := full.topSums(kMax)
			gotSums := partial.topSums(kMax)
			for i := range wantSums {
				if gotSums[i] != wantSums[i] {
					t.Fatalf("seed=%d t=%d: topSum[%d] = %v, want %v", seed, tt, i, gotSums[i], wantSums[i])
				}
			}
		}
	}
}
