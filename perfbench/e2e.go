package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"waso/internal/graph"
	"waso/internal/objective"
	"waso/internal/service"
)

const (
	// minSetups is how many set-ups a run times at least, the rounds'
	// included; setup_s is their median.
	minSetups = 8
	runLimit  = 100 * time.Second // ops of a round not started by then fail the run
)

// setupServer starts wasod and brings it to a warm resident graph: upload
// in the binary codec (decode, validation, ranking, and the snapshot on a
// durable server) followed by the warm-up solves. It returns the server
// and the seconds from exec to warm.
func setupServer(cfg config, w *workload) (*server, float64, error) {
	t := time.Now()
	s, err := startServer(cfg.wasod, cfg.out, w.durable)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.addr, 1)
	defer c.close()
	status, body, err := c.send(http.MethodPost, "/v1/graphs?id="+graphID, "application/octet-stream", w.upload)
	if err != nil || status != http.StatusCreated {
		s.stop()
		return nil, 0, fmt.Errorf("upload: HTTP %d %s %v", status, body, err)
	}
	for _, it := range w.warm {
		if status, body, err := c.do(http.MethodPost, "/v1/solve", solveBody(it)); err != nil || status != http.StatusOK {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up solve: HTTP %d %s %v", status, body, err)
		}
	}
	return s, time.Since(t).Seconds(), nil
}

// window is what one timed window produced.
type window struct {
	res     []result // w.ops
	verify  []result // w.verify, one at a time after the window
	elapsed time.Duration
	dials   int64
	info    service.GraphInfo // the final graph as the server lists it
	rssMB   float64
	cpu     float64 // server CPU seconds during the window
}

// runWindow drives the workload's timed ops against a warm server, then,
// if verify is set, sends the verification solves one at a time, and reads
// the final graph description and the server's peak RSS.
func runWindow(srv *server, w *workload, verify bool) (window, error) {
	var out window
	c := newClient(srv.addr, clients)
	defer c.close()
	do := httpDoer(c)
	// Open the connection before the clock starts.
	_, _, _ = c.do(http.MethodGet, "/healthz", nil) // a dead server fails the timed ops
	cpu0, _ := srv.cpuSeconds()                     // zero when unreadable; the figure is informational
	t0 := time.Now()
	out.res = drive(do, w.ops, t0, t0.Add(runLimit))
	out.elapsed = time.Since(t0)
	cpu1, _ := srv.cpuSeconds()
	out.cpu = cpu1 - cpu0
	out.dials = c.dials.Load()
	if verify {
		out.verify = drive(do, solveOps(w.verify), t0, time.Now().Add(time.Minute))
	}
	status, body, err := c.do(http.MethodGet, "/v1/graphs", nil)
	if err != nil || status != http.StatusOK {
		return out, fmt.Errorf("list graphs: HTTP %d %v", status, err)
	}
	var list struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Graphs) != 1 {
		return out, fmt.Errorf("list graphs: %v (%s)", err, body)
	}
	out.info = list.Graphs[0]
	out.rssMB, err = srv.peakRSSMB()
	return out, err
}

func runE2E(cfg config) (outcome, map[string]any, error) {
	spec, _ := specFor(cfg.workload)
	g, err := spec.Build()
	if err != nil {
		return outcome{}, nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.seconds, g)
	if err != nil {
		return outcome{}, nil, err
	}
	var setups []float64
	var wins []window
	setups0 := max(minSetups-w.rounds, 0) // set-ups that only time the set-up
	for i := range setups0 + w.rounds {
		srv, secs, err := setupServer(cfg, w)
		if err != nil {
			return outcome{}, nil, err
		}
		setups = append(setups, secs)
		if i < setups0 {
			srv.stop()
			continue
		}
		win, err := runWindow(srv, w, len(wins) == 0) // the first round verifies
		srv.stop()
		if err != nil {
			return outcome{}, nil, err
		}
		wins = append(wins, win)
	}
	ev, err := evaluate(w, g, wins)
	if err != nil {
		return outcome{}, nil, err
	}
	ev.put("setup_s", "s", median(setups))
	q1, q2, q3 := quartiles(setups)
	ev.extra["setup_s.quartiles"] = []float64{q1, q2, q3}
	return ev.finish()
}

// evaluation is the checked outcome of one window.
type evaluation struct {
	out      outcome
	extra    map[string]any
	problems []error
	ans      []answer     // answers to w.ops
	vans     []answer     // answers to w.verify
	final    *graph.Graph // the graph version the verification solves ran on
}

func (ev *evaluation) put(name, unit string, v float64) {
	ev.out.Metrics[name] = newMetric(v, unit)
}

func (ev *evaluation) fail(err error) { ev.problems = append(ev.problems, err) }

func (ev *evaluation) finish() (outcome, map[string]any, error) {
	if len(ev.problems) > 0 {
		ev.out.Correct = false
		ev.extra["problems"] = errors.Join(ev.problems...).Error()
	}
	return ev.out, ev.extra, nil
}

// evaluate checks every answer of the rounds once they are over, so the
// checker never competes with wasod for CPU, and derives the end-to-end
// metrics. Every answer of the first round must be a connected group of at
// most k nodes whose willingness matches the objective recomputed on the
// benchmark's own copy of the graph version it was solved on; on churn that
// copy is advanced by replaying the PATCH batches in list order. The first
// round's verification solves must match in-process solves on the final
// version bit for bit. Every later round replays the same list on a fresh
// server, so its answers and final graph must equal the first round's bit
// for bit.
func evaluate(w *workload, g *graph.Graph, wins []window) (*evaluation, error) {
	ev := &evaluation{
		out:   outcome{Correct: true, Metrics: map[string]metric{}},
		extra: map[string]any{},
		final: g,
	}
	win := wins[0]
	var failed int
	var err error
	ev.ans, failed, err = decodeAnswers(w.ops, win.res)
	ev.out.Attempted, ev.out.Failed = len(wins)*len(w.ops)+len(w.verify), failed
	if err != nil {
		ev.fail(err)
	}
	var vfailed int
	ev.vans, vfailed, err = decodeAnswers(solveOps(w.verify), win.verify)
	ev.out.Failed += vfailed
	if err != nil {
		ev.fail(err)
	}
	if ev.final, err = checkAnswers(g, w, win, ev.ans); err != nil {
		ev.fail(err)
	}
	// The verification solves must equal in-process solves on the same
	// graph version bit for bit.
	if ev.final != nil && vfailed == 0 {
		fe := newEnv(ev.final, 0)
		ref, err := fe.solveAll(w.verify, nproc())
		fe.close()
		if err != nil {
			return nil, err
		}
		if err := checkAgainst(fe.b, ev.vans, ref); err != nil {
			ev.fail(fmt.Errorf("verification: %w", err))
		}
	}
	var dials int64
	for r, rw := range wins {
		dials = max(dials, rw.dials)
		if rw.dials > clients {
			ev.fail(fmt.Errorf("round %d opened %d connections for %d clients", r, rw.dials, clients))
		}
		if r == 0 {
			continue
		}
		ans, f, err := decodeAnswers(w.ops, rw.res)
		ev.out.Failed += f
		if err = errors.Join(err, sameAnswers(ans, ev.ans)); err != nil {
			ev.fail(fmt.Errorf("round %d: %w", r, err))
		}
		if a, b := rw.info, win.info; a.Version != b.Version || a.Nodes != b.Nodes || a.Edges != b.Edges || a.ResidentBytes != b.ResidentBytes {
			ev.fail(fmt.Errorf("round %d: final graph %+v, first round %+v", r, a, b))
		}
	}

	// Each op's latency is its median over the rounds: the rounds run the
	// same op on the same graph version at times seconds apart, so a spell
	// in which the shared host runs slow has to cover half the rounds to
	// move it, while a change in the code under test moves every round.
	var solveLat, patchLat, rss, will []float64
	var solveAll, patchAll []float64 // every round's latencies, for the tails
	for i, o := range w.ops {
		var lat []float64
		for _, rw := range wins {
			if rw.res[i].ok() {
				lat = append(lat, rw.res[i].latencyMS())
			}
		}
		if len(lat) < len(wins) {
			continue // failed in some round; counted in Failed
		}
		if o.kind == opSolve {
			solveLat = append(solveLat, median(lat))
			solveAll = append(solveAll, lat...)
		} else {
			patchLat = append(patchLat, median(lat))
			patchAll = append(patchAll, lat...)
		}
	}
	var roundP50 []float64 // how far the host drifted over the run
	for _, rw := range wins {
		rss = append(rss, rw.rssMB)
		var lat []float64
		for i, r := range rw.res {
			if r.ok() && w.ops[i].kind == opSolve {
				lat = append(lat, r.latencyMS())
			}
		}
		if len(lat) > 0 {
			roundP50 = append(roundP50, median(lat))
		}
	}
	for _, a := range ev.ans {
		will = append(will, a.rep.Best.Willingness)
	}

	// Throughput over the time the client spent waiting on solves, each
	// at its median latency; on er100k-churn, where the client also sends
	// the PATCHes, the rate of the solves alone.
	ev.put("solve_qps", "1/s", float64(len(solveLat))/(sum(solveLat)/1e3))
	sl := sortedCopy(solveLat)
	ev.put("solve_p50_ms", "ms", percentile(sl, 50).Value)
	ev.put("solve_p90_ms", "ms", percentile(sl, 90).Value)
	ev.put("server_rss_mb", "MiB", median(rss))
	ev.put("willingness_mean", "W", mean(will))

	x := ev.extra
	for _, l := range []struct {
		name    string
		xs, all []float64
	}{{"solve", solveLat, solveAll}, {"mutate", patchLat, patchAll}} {
		if len(l.xs) == 0 {
			continue
		}
		s := sortedCopy(l.xs)
		x[l.name+"_p50_ms"] = describe(percentile(s, 50))
		x[l.name+"_p90_ms"] = describe(percentile(s, 90))
		// The tail counts every round's sample, so that a list too short
		// for ten requests beyond p90 still reports one.
		if p, ok := tail(sortedCopy(l.all)); ok {
			x[l.name+"_tail_ms"] = describe(p)
		}
	}
	var elapsed, cpu float64
	for _, rw := range wins {
		elapsed += rw.elapsed.Seconds()
		cpu += rw.cpu
	}
	x["fail_rate"] = float64(ev.out.Failed) / float64(ev.out.Attempted)
	x["loadgen.conns"] = dials
	x["rounds"] = len(wins)
	x["solve_p50_ms.by_round"] = roundP50
	x["window_s"] = elapsed
	x["server_cpu_util"] = cpu / elapsed / float64(nproc())
	x["workload"] = w.why
	return ev, nil
}

// sameAnswers reports the first answer of got that differs from want.
func sameAnswers(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, first round %d", len(got), len(want))
	}
	for i := range got {
		if got[i].res != want[i].res || !sameBest(got[i].rep.Best, want[i].rep.Best) {
			return fmt.Errorf("answer %d: %v, first round %v", i, got[i].rep.Best, want[i].rep.Best)
		}
	}
	return nil
}

// checkAnswers checks every answer on the graph version it was solved on,
// walking the ops in list order and applying each PATCH batch onto a local
// copy with graph.ApplyMutations, and then the final version against the
// server's description of it. It returns the final local graph.
func checkAnswers(g *graph.Graph, w *workload, win window, ans []answer) (*graph.Graph, error) {
	obj := mustDefault()
	cur, b := g, objective.Bind(obj, g)
	var version uint64
	next := 0 // the next answer to check
	for i, o := range w.ops {
		if o.kind == opPatch {
			muts, err := typedMutations(o.muts)
			if err != nil {
				return nil, err
			}
			if cur, _, err = cur.ApplyMutations(muts); err != nil {
				return nil, fmt.Errorf("replay PATCH %d: %w", version, err)
			}
			b = objective.Bind(obj, cur)
			version++
			continue
		}
		if next < len(ans) && ans[next].res == i {
			a := ans[next]
			if err := checkBest(b, a.item.Request.K, a.rep.Best); err != nil {
				return nil, fmt.Errorf("solve %d (%s) on version %d: %w", i, a.item.Algo, version, err)
			}
			next++
		}
	}
	want := service.GraphInfo{Version: version, Nodes: cur.N(), Edges: cur.M(), ResidentBytes: cur.ResidentBytes()}
	got := win.info
	if got.Version != want.Version || got.Nodes != want.Nodes || got.Edges != want.Edges || got.ResidentBytes != want.ResidentBytes {
		return nil, fmt.Errorf("final graph: wasod has version %d (%d nodes, %d edges, %d B), replay has %d (%d, %d, %d B)",
			got.Version, got.Nodes, got.Edges, got.ResidentBytes, want.Version, want.Nodes, want.Edges, want.ResidentBytes)
	}
	return cur, nil
}

func typedMutations(js []graph.MutationJSON) ([]graph.Mutation, error) {
	out := make([]graph.Mutation, len(js))
	for i, m := range js {
		var err error
		if out[i], err = m.Mutation(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func solveOps(items []solveItem) []op {
	out := make([]op, len(items))
	for i, it := range items {
		out[i] = solveOp(it)
	}
	return out
}

func describe(p pct) string {
	return fmt.Sprintf("p%g=%.4f (n=%d, %d beyond)", p.P, p.Value, p.N, p.Beyond)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
