package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload measured and checked.
type report struct {
	attempted, failed int
	verified          int
	metrics           map[string]metric
	// problems lists every failed check; any entry makes the run incorrect.
	problems []string
	// counts are the exact totals that must repeat at one seed.
	counts counts
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// counts are the deterministic totals of a run: identical for every run
// at one seed, whatever the machine's speed or load.
type counts struct {
	Gates       int64 `json:"gates_total"`
	QuantumCost int64 `json:"quantum_cost_total"`
	Expansions  int64 `json:"core_expansions"`
}

// searchTotals sums the search counters of results.
type searchTotals struct {
	expansions, nodes, restarts int64
	dedupHits, dedupProbes      int64
	peakQueue                   int64
}

func (t *searchTotals) add(r *core.Result) {
	t.expansions += int64(r.Steps)
	t.nodes += int64(r.Nodes)
	t.restarts += int64(r.Restarts)
	t.dedupHits += r.DedupHits
	t.dedupProbes += r.DedupHits + r.DedupMisses
	t.peakQueue = max(t.peakQueue, r.PeakQueueBytes)
}

// round is one set-up and timed phase of a run; a timed run makes
// roundsPerRun of them over the same op list.
type round struct {
	setup    time.Duration
	lat      []time.Duration // per op
	elapsed  time.Duration   // the timed phase
	answered int             // ops that came back with a circuit
}

// setEndToEnd records the end-to-end metrics: each timing is the median
// over the rounds, which damps slow spells of the machine that last
// longer than one op.
func (r *report) setEndToEnd(rounds []round) error {
	var thr, p50s, p90s, setups []float64
	for _, rd := range rounds {
		p50, err := percentile(rd.lat, 0.50)
		if err != nil {
			return err
		}
		p90, err := percentile(rd.lat, 0.90)
		if err != nil {
			return err
		}
		thr = append(thr, float64(rd.answered)/rd.elapsed.Seconds())
		p50s = append(p50s, ms(p50))
		p90s = append(p90s, ms(p90))
		setups = append(setups, rd.setup.Seconds())
	}
	r.set("throughput_ops_s", "ops/s", medianFloat(thr))
	r.set("latency_p50_ms", "ms", medianFloat(p50s))
	r.set("latency_p90_ms", "ms", medianFloat(p90s))
	r.set("gates_total", "gates", float64(r.counts.Gates))
	r.set("quantum_cost_total", "cost", float64(r.counts.QuantumCost))
	r.set("verified_frac", "ratio", float64(r.verified)/float64(r.attempted))
	r.set("failed_frac", "ratio", float64(r.failed)/float64(r.attempted))
	r.set("setup_s", "s", medianFloat(setups))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addCircuit adds one answered op's circuit to the exact totals.
func (r *report) addCircuit(c *circuit.Circuit) {
	r.counts.Gates += int64(c.Len())
	r.counts.QuantumCost += int64(c.QuantumCost())
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints every metric as a "name value unit" line, followed for a
// per-layer metric by what it should move, then the result object holding
// the metrics of specs as the last line.
func (r *report) emit(w io.Writer, specs []metricSpec) error {
	moves := make(map[string]string)
	for _, s := range specs {
		moves[s.name] = s.moves
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-28s %14.6g %s", n, m.Value, m.Unit)
		if mv := moves[n]; mv != "" {
			line = fmt.Sprintf("%-52s moves: %s", line, mv)
		}
		fmt.Fprintln(w, line)
	}
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, s := range specs {
		m, ok := r.metrics[s.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
