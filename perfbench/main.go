// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives two closed-loop workloads through public entry
// points — the library call core.SynthesizePermContext (search-4var) and
// an in-process rmrlsd server over loopback HTTP (serve-4var) — re-checks
// every answer independently, and prints the metrics named in
// BENCHMARK.json.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload search-4var --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, prints the per-layer metrics and the tracing
// overhead, and writes the spans under .bench_build/perfbench/. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. Any failed check makes correct false and the exit code 1.
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// roundsPerRun is how many rounds (set-up, then the timed op list) a
// timed run makes; its timings and setup_s are medians over them.
const roundsPerRun = 3

// maxShown bounds how many failed checks are printed one by one.
const maxShown = 20

// stateDir holds what a run leaves for later runs in the same checkout:
// spans of traced runs and the exact counts of every seed seen.
const stateDir = ".bench_build/perfbench"

type runConfig struct {
	seed      uint64
	trace     bool
	spansPath string
}

type workload struct {
	name string
	run  func(context.Context, runConfig) (*report, error)
}

var workloads = []workload{
	{"search-4var", runSearch4},
	{"serve-4var", serveWorkload(serve4)},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: search-4var or serve-4var")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "nominal run length; the op lists are fixed and sized for about 15")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	cfg := runConfig{
		seed:      *seed,
		trace:     *trace == 1,
		spansPath: filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.tsv.gz", w.name, *seed)),
	}
	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.checkCounts(w.name, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	keep := endToEnd
	if cfg.trace {
		keep = perLayer
	}
	for i, p := range rep.problems {
		if i == maxShown {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failed checks\n", len(rep.problems)-maxShown)
			break
		}
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	if err := rep.emit(stdout, keep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// checkCounts is the cross-run half of the determinism check: the exact
// totals of a workload at one seed are recorded the first time and every
// later run of the same binary must reproduce them.
func (r *report) checkCounts(workload string, cfg runConfig) error {
	if len(r.problems) > 0 {
		return nil // an incorrect run records nothing
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	path := filepath.Join(stateDir, "counts", fmt.Sprintf("%s-seed%d-trace%v-%s.json", workload, cfg.seed, cfg.trace, build))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		var want counts
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if want != r.counts {
			r.problem("%s seed %d: exact counts %+v differ from an earlier run's %+v (%s)", workload, cfg.seed, r.counts, want, path)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		b, err := json.Marshal(r.counts)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	default:
		return err
	}
}

// buildID names the running binary by a hash of its bytes, so a record
// made by one build never judges another.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}
