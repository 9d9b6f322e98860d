package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"waso/internal/core"
	"waso/internal/gen"
	"waso/internal/graph"
	"waso/internal/rng"
)

// Workload shape. Every size below is fixed here, never calibrated against
// the code under test: --seconds, split over a workload's rounds, scales its
// request list through the nominal rates, so both sides of an A/B do
// exactly the same work.
const (
	graphN    = 100_000
	graphDeg  = 8
	graphSeed = 1
	// One closed-loop client, and one executor worker per pl100k-cbasnd
	// solve, so the load keeps about one vCPU busy. On a shared 2-vCPU host
	// a kernel that kept both vCPUs busy slowed by up to 1.8× from minute
	// to minute, while the same kernel on one vCPU stayed within ±10%.
	clients = 1

	plRounds       = 8 // pl100k-cbasnd: rounds per run
	plSolvesPerSec = 7 // pl100k-cbasnd: closed-loop request list per second of a round

	// er100k-churn: four rounds, so that from --seconds 20 up each round
	// sends more PATCH batches than the snapshot cadence (256) and passes
	// a periodic snapshot.
	churnRounds         = 4
	churnPatchesPerSec  = 52 // PATCH batches per second of a round
	churnSolvesPerPatch = 4  // solves sent after each PATCH
	churnBatchOps       = 16 // ops per PATCH batch

	verifySolves = 16 // sequential one-client solves after the first round's window

	graphID = "g"
)

type opKind int

const (
	opSolve opKind = iota
	opPatch
)

func (k opKind) String() string {
	return [...]string{"solve", "patch"}[k]
}

// solveItem is one (algo, request) pair as the wire carries it.
type solveItem struct {
	Algo    string       `json:"algo"`
	Request core.Request `json:"request"`
}

// op is one HTTP operation of a workload with its pre-encoded body, so the
// generator does no encoding inside the timed window.
type op struct {
	kind opKind
	item solveItem            // opSolve
	muts []graph.MutationJSON // opPatch
	body []byte
}

// workload is a fully generated workload: the graph upload, warm-up, timed
// ops and the verification solves. An end-to-end run drives the whole list
// once per round, each time on a freshly started wasod.
type workload struct {
	name    string
	why     string
	rounds  int
	upload  []byte // the graph in the binary codec, as wasod ingests it
	durable bool
	warm    []solveItem
	ops     []op        // in list order; churn interleaves PATCHes and solves
	verify  []solveItem // sent one at a time after the window, on the final version
}

var workloadNames = []string{"pl100k-cbasnd", "er100k-churn"}

// specFor returns the graph spec of a workload. The graph is part of the
// workload's definition, not of its seed: which nodes rank on top, and so
// what a solve costs, differs a lot between graph instances, and a fixed
// instance keeps that out of the run-to-run spread. The workload seed
// varies everything sent to the graph.
func specFor(name string) (gen.Spec, error) {
	switch name {
	case "pl100k-cbasnd":
		return gen.Spec{Kind: "powerlaw", N: graphN, AvgDeg: graphDeg, Seed: graphSeed}, nil
	case "er100k-churn":
		return gen.Spec{Kind: "er", N: graphN, AvgDeg: graphDeg, Seed: graphSeed}, nil
	}
	return gen.Spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// newWorkload generates the named workload over g, the benchmark's own copy
// of the workload's graph, with its list sized to take about seconds over
// all its rounds.
func newWorkload(name string, seed uint64, seconds int, g *graph.Graph) (*workload, error) {
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		return nil, err
	}
	r := rng.New(seed).Split(2)
	w := &workload{name: name, upload: buf.Bytes()}
	count := func(perSec float64) int { return int(math.Ceil(perSec * float64(seconds) / float64(w.rounds))) }
	switch name {
	case "pl100k-cbasnd":
		w.rounds = plRounds
		w.why = "the paper's CBAS-ND on a hub-heavy social graph; time goes to growth and sampling, regions bypassed"
		cbasnd := func() solveItem {
			req := core.DefaultRequest(10)
			req.Seed = r.Uint64()
			req.Workers = 1 // results do not depend on it; see clients
			return solveItem{Algo: "cbasnd", Request: req}
		}
		w.warm = []solveItem{cbasnd()}
		for range count(plSolvesPerSec) {
			w.ops = append(w.ops, solveOp(cbasnd()))
		}
		for range verifySolves {
			w.verify = append(w.verify, cbasnd())
		}
	case "er100k-churn":
		w.why = "PATCH batches between cheap solves on a durable server; the only workload on the write path"
		w.durable = true
		w.rounds = churnRounds
		mix := &mixer{r: r}
		w.warm = mix.items(4)
		mg := newMutGen(g, r.Split(3), 4)
		for v := range count(churnPatchesPerSec) {
			muts, err := mg.batch(churnBatchOps)
			if err != nil {
				return nil, fmt.Errorf("generate PATCH %d: %w", v, err)
			}
			w.ops = append(w.ops, patchOp(muts))
			for _, it := range mix.items(churnSolvesPerPatch) {
				w.ops = append(w.ops, solveOp(it))
			}
		}
		w.verify = mix.items(verifySolves)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// mixer makes interactive k=4 solves at the paper-default budgets, each
// with its own request seed. The algorithm rotates through cbas, cbasnd and
// dgreedy, so every list holds them in fixed shares: their costs differ by
// two orders of magnitude, and a drawn mix would move the percentiles from
// seed to seed.
type mixer struct {
	r *rng.Stream
	n int
}

func (m *mixer) items(n int) []solveItem {
	algos := []string{"cbas", "cbasnd", "dgreedy"}
	out := make([]solveItem, n)
	for i := range out {
		req := core.DefaultRequest(4)
		req.Seed = m.r.Uint64()
		out[i] = solveItem{Algo: algos[m.n%len(algos)], Request: req}
		m.n++
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are encoded
	}
	return b
}

func solveBody(it solveItem) []byte {
	return mustJSON(struct {
		Graph string `json:"graph"`
		solveItem
	}{graphID, it})
}

func solveOp(it solveItem) op {
	return op{kind: opSolve, item: it, body: solveBody(it)}
}

func patchOp(muts []graph.MutationJSON) op {
	return op{kind: opPatch, muts: muts, body: mustJSON(struct {
		Ops []graph.MutationJSON `json:"ops"`
	}{muts})}
}
