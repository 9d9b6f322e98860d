package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestHarnessReport: a small sweep produces a well-formed
// BENCH_solvers.json-style document with one row per (algo, workers)
// configuration plus the unprepped rows, positive timings, and the
// deterministic solution fields filled in.
func TestHarnessReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-n", "2000", "-samples", "5", "-reps", "1",
		"-workers", "1,2", "-algos", "cbas,cbasnd",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 algos × (2 worker counts + 1 unprepped row).
	if want := 6; len(rep.Benchmarks) != want {
		t.Fatalf("got %d benchmark rows, want %d", len(rep.Benchmarks), want)
	}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns_per_op = %v", b.Name, b.NsPerOp)
		}
		if b.Willing <= 0 {
			t.Errorf("%s: willingness = %v", b.Name, b.Willing)
		}
		if b.SamplesN <= 0 {
			t.Errorf("%s: samples_drawn = %d", b.Name, b.SamplesN)
		}
	}
	// Worker count must not change the answer — the harness measures the
	// same deterministic solve at every sweep point.
	byName := map[string]entry{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	w1 := byName["BenchmarkLargeGraph/n=2000/cbasnd/workers=1"]
	w2 := byName["BenchmarkLargeGraph/n=2000/cbasnd/workers=2"]
	if w1.Willing != w2.Willing {
		t.Errorf("cbasnd willingness differs across workers: %v vs %v", w1.Willing, w2.Willing)
	}
	if rep.Date == "" || rep.Goos == "" || rep.Command == "" {
		t.Errorf("missing report metadata: %+v", rep)
	}
}

// TestHarnessRegionSweep: sweeping region modes and group sizes yields one
// row per (k, mode, workers) plus unprepped rows, default axes omitted
// from names, and bit-identical willingness across modes (regions are
// execution strategy, never results).
func TestHarnessRegionSweep(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-gen", "er", "-avgdeg", "2", "-n", "1500", "-samples", "5", "-reps", "1",
		"-workers", "1", "-algos", "cbas", "-ks", "4,10", "-regions", "auto,off",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 ks × 2 modes × (1 worker row + 1 unprepped row).
	if want := 8; len(rep.Benchmarks) != want {
		t.Fatalf("got %d benchmark rows, want %d", len(rep.Benchmarks), want)
	}
	byName := map[string]entry{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	for _, pair := range [][2]string{
		{"BenchmarkLargeGraph/n=1500/gen=er/k=4/cbas/workers=1",
			"BenchmarkLargeGraph/n=1500/gen=er/k=4/cbas/workers=1/regions=off"},
		{"BenchmarkLargeGraph/n=1500/gen=er/cbas/workers=1/unprepped",
			"BenchmarkLargeGraph/n=1500/gen=er/cbas/workers=1/regions=off/unprepped"},
	} {
		auto, ok := byName[pair[0]]
		if !ok {
			t.Fatalf("missing row %q (have %v)", pair[0], names(rep.Benchmarks))
		}
		off, ok := byName[pair[1]]
		if !ok {
			t.Fatalf("missing row %q (have %v)", pair[1], names(rep.Benchmarks))
		}
		if auto.Willing != off.Willing {
			t.Errorf("%s: willingness %v != %v across region modes", pair[0], auto.Willing, off.Willing)
		}
	}
}

// TestThroughputMode: the serving replay produces one row per (algo,
// concurrency) with positive QPS and ordered percentiles, and rejects bad
// sweep flags.
func TestThroughputMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-throughput", "-n", "2000", "-samples", "5", "-requests", "8",
		"-concurrency", "1,2", "-algos", "cbas",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 1 algo × 2 concurrencies.
	if want := 2; len(rep.Benchmarks) != want {
		t.Fatalf("got %d rows, want %d: %v", len(rep.Benchmarks), want, names(rep.Benchmarks))
	}
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		seen[b.Name] = true
		if b.QPS <= 0 || b.NsPerOp <= 0 {
			t.Errorf("%s: qps = %v, ns_per_op = %v", b.Name, b.QPS, b.NsPerOp)
		}
		if b.P50 <= 0 || b.P95 < b.P50 || b.P99 < b.P95 {
			t.Errorf("%s: unordered percentiles p50=%v p95=%v p99=%v", b.Name, b.P50, b.P95, b.P99)
		}
		if b.Iters != 8 {
			t.Errorf("%s: iterations = %d, want 8", b.Name, b.Iters)
		}
		// Every row carries scraped serving-telemetry deltas covering the
		// timed replay: 8 requests × 8 default starts drew workspaces.
		if b.Metrics == nil {
			t.Fatalf("%s: no metrics deltas", b.Name)
		}
		if got := b.Metrics["waso_workspace_pool_gets_total"]; got <= 0 {
			t.Errorf("%s: waso_workspace_pool_gets_total = %v, want > 0", b.Name, got)
		}
		if jobs := b.Metrics["waso_executor_jobs_total"]; jobs != 8 {
			t.Errorf("%s: waso_executor_jobs_total = %v, want 8 (one per request)", b.Name, jobs)
		}
		if cnt := b.Metrics["waso_executor_queue_wait_seconds_count"]; cnt != 8 {
			t.Errorf("%s: queue-wait count = %v, want 8", b.Name, cnt)
		}
		p50 := b.Metrics["waso_executor_queue_wait_seconds_p50"]
		p99 := b.Metrics["waso_executor_queue_wait_seconds_p99"]
		if p50 < 0 || p99 < p50 {
			t.Errorf("%s: queue-wait percentiles p50=%v p99=%v", b.Name, p50, p99)
		}
	}
	for _, want := range []string{
		"BenchmarkThroughput/n=2000/cbas/conc=1",
		"BenchmarkThroughput/n=2000/cbas/conc=2",
	} {
		if !seen[want] {
			t.Errorf("missing row %q (have %v)", want, names(rep.Benchmarks))
		}
	}

	for _, args := range [][]string{
		{"-throughput", "-n", "100", "-requests", "0"},
		{"-throughput", "-n", "100", "-concurrency", "0"},
		// Sweep axes the replay does not honour fail loudly instead of
		// silently shaping the output.
		{"-throughput", "-n", "100", "-regions", "off,auto"},
		{"-throughput", "-n", "100", "-workers", "2"},
		{"-throughput", "-n", "100", "-reps", "5"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func names(rows []entry) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Name
	}
	return out
}

// TestCompare: the regression gate passes within tolerance, fails beyond
// it, fails when nothing matches, and honours the name filter.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows []entry) string {
		path := dir + "/" + name
		data, err := json.Marshal(report{Benchmarks: rows})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 1000},
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1/regions=off", NsPerOp: 2000},
	})
	ok := write("ok.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 1200},
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1/regions=off", NsPerOp: 1900},
		{Name: "BenchmarkLargeGraph/n=999/only-in-new", NsPerOp: 5},
	})
	bad := write("bad.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 1300},
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1/regions=off", NsPerOp: 1900},
	})
	var buf bytes.Buffer
	if err := run([]string{"-compare-base", base, "-compare-new", ok}, &buf); err != nil {
		t.Errorf("within tolerance: %v\n%s", err, buf.String())
	}
	if err := run([]string{"-compare-base", base, "-compare-new", bad}, &bytes.Buffer{}); err == nil {
		t.Error("1.3x regression passed a 1.25x gate")
	}
	// The regressed row is filtered out by the match string.
	if err := run([]string{"-compare-base", base, "-compare-new", bad, "-compare-match", "regions=off"}, &bytes.Buffer{}); err != nil {
		t.Errorf("filtered compare: %v", err)
	}
	// A generous tolerance passes the same rows.
	if err := run([]string{"-compare-base", base, "-compare-new", bad, "-compare-tolerance", "1.5"}, &bytes.Buffer{}); err != nil {
		t.Errorf("loose tolerance: %v", err)
	}
	// Matching nothing is a failure, not a silent pass.
	if err := run([]string{"-compare-base", base, "-compare-new", ok, "-compare-match", "no-such-row"}, &bytes.Buffer{}); err == nil {
		t.Error("zero matched rows passed the gate")
	}
	// So is shrunk coverage: a baseline row the filter gates that the
	// fresh report no longer produces.
	shrunk := write("shrunk.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 1000},
	})
	if err := run([]string{"-compare-base", base, "-compare-new", shrunk}, &bytes.Buffer{}); err == nil {
		t.Error("fresh report missing a gated baseline row passed the gate")
	}
	if err := run([]string{"-compare-base", base}, &bytes.Buffer{}); err == nil {
		t.Error("-compare-base without -compare-new accepted")
	}

	// Answers are gated too: a matched row whose willingness moved fails
	// even when it got faster, and the error names the row and both
	// values. A side without willingness is not checked.
	withW := write("with-w.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 1000, Willing: 12.5},
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1/regions=off", NsPerOp: 2000, Willing: 30.25},
	})
	sameW := write("same-w.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 900, Willing: 12.5},
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1/regions=off", NsPerOp: 1900},
	})
	if err := run([]string{"-compare-base", withW, "-compare-new", sameW}, &bytes.Buffer{}); err != nil {
		t.Errorf("equal willingness (one side absent): %v", err)
	}
	movedW := write("moved-w.json", []entry{
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1", NsPerOp: 500, Willing: 12.5},
		{Name: "BenchmarkLargeGraph/n=100000/cbas/workers=1/regions=off", NsPerOp: 1000, Willing: 30.249999},
	})
	buf.Reset()
	err := run([]string{"-compare-base", withW, "-compare-new", movedW}, &buf)
	if err == nil || !strings.Contains(err.Error(), "cbas/workers=1/regions=off: willingness 30.25 -> 30.249999") {
		t.Errorf("changed willingness: err = %v, want the row and both values named", err)
	}
	if !strings.Contains(buf.String(), "ANSWER CHANGED") {
		t.Errorf("compare table does not flag the changed row:\n%s", buf.String())
	}
}

func TestHarnessBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "abc"},
		{"-workers", "-2"},
		{"-reps", "0"},
		{"-algos", "oracle"},
		{"-ks", "0"},
		{"-regions", "sometimes"},
	} {
		// Small default -n keeps the cases that fail later than flag
		// parsing cheap; the case's own flags come last so they win.
		if err := run(append([]string{"-samples", "1", "-n", "50"}, args...), &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
