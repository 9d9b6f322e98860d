// Command perfbench is the repository's end-to-end benchmark. It starts
// wasod (built from the same tree) as its own process with default flags,
// drives one workload over loopback HTTP from this process, checks every
// answer, and prints the metrics as one JSON object on the last line of
// standard output. With -trace 1 it instead replays the workload in-process
// against the service, solver, graph and store layers, records spans around
// each call, and prints the per-layer metrics derived from them.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload er100k-churn --seed 1 --seconds 10 --trace 0
//
// README.md in this directory lists the workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newMetric reports v, or 0 where a run had nothing to measure (no samples,
// or a layer the workload does not reach), which JSON could not carry.
func newMetric(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metric{Value: v, Unit: unit}
}

// outcome is the benchmark's verdict for one run: the last stdout line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	wasod    string
	out      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: request seeds and PATCH batches derive from it; the graph is fixed per workload")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal run length; sizes the fixed request lists")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from the traced in-process replay")
	flag.StringVar(&cfg.wasod, "wasod", "", "wasod binary built from the tree under test")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for logs, traces and result records")
	flag.Parse()
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, extra, err := run(cfg)
	if err == nil {
		err = matchContract(cfg.trace, out.Metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := record(cfg, out, extra); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func validate(cfg config, trace int) error {
	if _, err := specFor(cfg.workload); err != nil {
		return err
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return fmt.Errorf("-seconds must be in [1, 60], got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if st, err := os.Stat(cfg.wasod); err != nil || st.IsDir() {
		return fmt.Errorf("-wasod %q is not a wasod binary", cfg.wasod)
	}
	return os.MkdirAll(cfg.out, 0o755)
}

func run(cfg config) (outcome, map[string]any, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runE2E(cfg)
}

// matchContract checks that a run reports exactly the metrics, with the
// units, that BENCHMARK.json at the repository root lists for its mode.
func matchContract(trace bool, got map[string]metric) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := doc.EndToEnd
	if trace {
		want = doc.PerLayer
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			return fmt.Errorf("metric %s [%s] from BENCHMARK.json: run reported %+v", m.Name, m.Unit, g)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	return nil
}

// record prints the run's provenance and every metric, and stores them as a
// JSON record beside the traces.
func record(cfg config, out outcome, extra map[string]any) error {
	prov := provenance(cfg)
	fmt.Printf("# %s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, prov["nproc"], prov["gomaxprocs"],
		prov["cpu"], prov["go"], prov["commit"])
	for _, name := range sortedKeys(out.Metrics) {
		fmt.Printf("%-40s %14.4f %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	for _, name := range sortedKeys(extra) {
		fmt.Printf("%-40s %v\n", name, extra[name])
	}
	rec := map[string]any{"provenance": prov, "outcome": out, "report": extra}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := map[bool]string{false: "e2e", true: "trace"}[cfg.trace]
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-%s.json", cfg.workload, cfg.seed, mode)), b, 0o644)
}

// provenance identifies the host, toolchain and code a result came from.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"nproc":      nproc(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commitID(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func nproc() int { return runtime.NumCPU() }

// commitID names the code under test: the git commit when the checkout is a
// repository, and always a hash of the Go sources, which also tells apart
// checkouts that are not.
func commitID() string {
	id := "none"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			id = strings.TrimSpace(string(b))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod"):
			return nil
		}
		b, err := os.ReadFile(p)
		if err == nil {
			io.WriteString(h, p)
			h.Write(b)
		}
		return err
	})
	if err != nil {
		return id + " tree-sha256:unreadable"
	}
	return id + " tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
