// Command perfbench is the repository's benchmark: four QAOA
// workloads run end to end through the public registry and service
// API, with a traced mode that breaks the time down by layer. See
// README.md for why each workload exists and what each metric means.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload labs_opt --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones.
// Any failed output check makes the run exit non-zero with correct
// set to false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, the human-readable notes printed
// before them, and the outcome of every output check. shown holds
// metrics printed in the table but left out of the JSON result (see
// README.md: their spread on the reference host exceeds any bound).
type report struct {
	metrics   map[string]metric
	shown     map[string]metric
	notes     []string
	checkErrs []string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), shown: make(map[string]metric)}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) show(name string, v float64, unit string) {
	r.shown[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// config is what every workload receives.
type config struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	host    host
	outDir  string
}

// spansPath is where a traced run writes its spans.
func spansPath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.name, cfg.seed))
}

type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"labs_opt", runLabsOpt},
	{"maxcut_scan", runMaxCutScan},
	{"registry_churn", runRegistryChurn},
	{"distributed_opt", runDistributedOpt},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: labs_opt, maxcut_scan, registry_churn, distributed_opt")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of labs_opt, maxcut_scan, registry_churn, distributed_opt), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		name:    wl.name,
		seed:    *seed,
		seconds: time.Duration(*secs) * time.Second,
		trace:   *trace == 1,
		host:    hostFacts(),
		outDir:  ".bench_build",
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep := newReport()
	if err := wl.run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}

	fmt.Printf("# %s seed=%d seconds=%d trace=%d\n", wl.name, cfg.seed, *secs, *trace)
	fmt.Printf("# %s\n", cfg.host)
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	printTable(rep.metrics, "")
	printTable(rep.shown, "  (not gated)")
	for _, e := range rep.checkErrs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	correct := len(rep.checkErrs) == 0
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// The same result, with the host facts and notes, is kept beside
	// the build so every result carries the machine it ran on.
	saved, _ := json.MarshalIndent(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Seconds  int      `json:"seconds"`
		Trace    int      `json:"trace"`
		Host     host     `json:"host"`
		Notes    []string `json:"notes"`
		Checks   []string `json:"failed_checks"`
		Result   any      `json:"result"`
	}{wl.name, cfg.seed, *secs, *trace, cfg.host, rep.notes, rep.checkErrs, out}, "", "  ")
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, cfg.seed, *trace))
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printTable(ms map[string]metric, suffix string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %.6g %s%s\n", n, ms[n].Value, ms[n].Unit, suffix)
	}
}
