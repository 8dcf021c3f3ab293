package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/serve"
)

func msSamples(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration // 0: must fail
	}{
		{100, 0.90, 90 * time.Millisecond}, // exactly 10 beyond
		{120, 0.90, 108 * time.Millisecond},
		{99, 0.90, 0}, // 9 beyond
		{100, 0.50, 50 * time.Millisecond},
		{19, 0.50, 0}, // 9 beyond the median
		{20, 0.50, 10 * time.Millisecond},
		{1000, 0.99, 990 * time.Millisecond},
		{999, 0.99, 0},
	} {
		got, err := percentile(msSamples(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want an error", c.p*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "a", Parent: 0, Start: 20, End: 50}, // overlaps the first child
		{Name: "b", Parent: 0, Start: 70, End: 80},
		{Name: "b", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "c", Parent: 1, Start: 15, End: 25},
		{Name: "op", Parent: -1, Start: 200, End: 230},
	}
	// op 0 loses [10,50] ∪ [70,80] ∪ [90,100] = 60; child 1 loses its own child.
	want := []int64{40, 10, 30, 10, 30, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	agg := aggregate(&Tracer{spans: spans})
	if l := agg["op"]; l.Calls != 2 || l.Self != 70 {
		t.Errorf("op aggregate = %+v, want 2 calls, 70ns", l)
	}
	if l := agg["a"]; l.perCall(time.Nanosecond) != 20 {
		t.Errorf("a per call = %v, want 20", l.perCall(time.Nanosecond))
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	root := tr.Begin("op", 7, -1)
	child := tr.Begin("inner", 7, root)
	tr.End(child)
	tr.End(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var none *Tracer // the untraced path records nothing and must not panic
	none.End(none.Begin("op", 0, -1))
}

func serveBodies(in serveInputs) [][]byte {
	var out [][]byte
	for _, op := range in.warm {
		out = append(out, op.body)
	}
	for _, seqs := range [][][]serveOp{in.clients, in.warmup} {
		for _, seq := range seqs {
			for _, op := range seq {
				out = append(out, op.body)
			}
		}
	}
	return out
}

func TestSeedFixesInputs(t *testing.T) {
	s1, s1again, s2 := makeSearch4(7, 20, 2), makeSearch4(7, 20, 2), makeSearch4(8, 20, 2)
	if !reflect.DeepEqual(s1, s1again) {
		t.Error("search-4var: one seed gave two function lists")
	}
	if reflect.DeepEqual(s1.funcs, s2.funcs) {
		t.Error("search-4var: another seed gave the same functions")
	}

	v1, err := makeServe(7, serveSizes{warm: 16, clients: 2, perClient: 400, warmup: 5, cold: 100}, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	v1again, _ := makeServe(7, serveSizes{warm: 16, clients: 2, perClient: 400, warmup: 5, cold: 100}, keepAll)
	v2, _ := makeServe(8, serveSizes{warm: 16, clients: 2, perClient: 400, warmup: 5, cold: 100}, keepAll)
	b1, b1again, b2 := serveBodies(v1), serveBodies(v1again), serveBodies(v2)
	if len(b1) != 16+2*400+2*5 {
		t.Fatalf("serve-4var: %d request bodies", len(b1))
	}
	same := 0
	for i := range b1 {
		if !bytes.Equal(b1[i], b1again[i]) {
			t.Fatalf("serve-4var: one seed gave two bodies for request %d:\n%s\n%s", i, b1[i], b1again[i])
		}
		if bytes.Equal(b1[i], b2[i]) {
			same++
		}
	}
	if same == len(b1) {
		t.Error("serve-4var: another seed gave the same request bodies")
	}
}

func TestServeMixAndDistinctClasses(t *testing.T) {
	in, err := makeServe(3, serveSizes{warm: 64, clients: 2, perClient: 2000, cold: 10}, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	class := func(op serveOp) uint64 {
		rep, _, err := canon.Canonicalize(op.want)
		if err != nil {
			t.Fatal(err)
		}
		return canon.Hash(rep)
	}
	warm := make(map[uint64]bool)
	for _, op := range in.warm {
		warm[class(op)] = true
	}
	if len(warm) != 64 {
		t.Fatalf("warm set spans %d classes, want 64", len(warm))
	}
	cold := make(map[uint64]bool)
	for c, seq := range in.clients {
		kinds := map[opKind]int{}
		for i, op := range seq {
			kinds[op.kind]++
			h := class(op)
			switch op.kind {
			case hitOp:
				if !warm[h] {
					t.Errorf("client %d op %d: conjugate outside the warm set", c, i)
				}
			default:
				if warm[h] || cold[h] {
					t.Errorf("client %d op %d: cold function repeats a class", c, i)
				}
				cold[h] = true
			}
		}
		if kinds[coldOp] != 20 || kinds[hitOp] != 1980 {
			t.Errorf("client %d mix = %v, want 20 cold, 1980 hits", c, kinds)
		}
	}
}

func keepAll(perm.Perm) (bool, error) { return true, nil }

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var listed, program []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		program = append(program, w.name)
	}
	if !reflect.DeepEqual(listed, program) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v", listed, program)
	}
	check := func(kind string, got []jm, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestServePassSmall drives a small serve-4var request list through a real
// in-process server twice: every reply passes the full re-check, every
// conjugate is answered from the cache, and the second pass answers
// exactly as the first.
func TestServePassSmall(t *testing.T) {
	sz := serveSizes{warm: 8, clients: 2, perClient: 100, warmup: 5, cold: 50}
	ctx := context.Background()
	trs := []*Tracer{newTracer(time.Now(), 0), newTracer(time.Now(), 0)}
	first, _, err := runServePass(11, sz, trs, true, newTracer(time.Now(), 0))
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if _, err := checkServe(ctx, rep, &first, nil); err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 200 || rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("attempted %d failed %d: %v", rep.attempted, rep.failed, rep.problems)
	}
	if rep.verified < 198 {
		t.Errorf("verified %d of 200", rep.verified)
	}
	var hitOps, fromCache int
	for c, seq := range first.in.clients {
		for i, op := range seq {
			if op.kind != hitOp {
				continue
			}
			hitOps++
			if r := first.replies[c][i]; r.job.Deduplicated || (r.job.Result != nil && r.job.Result.CacheHit) {
				fromCache++
			}
		}
	}
	if hitOps != 2*95 || fromCache != hitOps {
		t.Errorf("%d of %d conjugates answered from the cache, want all of 190", fromCache, hitOps)
	}
	again, _, err := runServePass(11, sz, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameReplies(rep, "second pass", &first, &again)
	if len(rep.problems) != 0 {
		t.Fatal(rep.problems)
	}
	for c, tr := range trs {
		if len(tr.spans) != sz.perClient {
			t.Errorf("client %d recorded %d spans, want %d", c, len(tr.spans), sz.perClient)
		}
	}
}

// TestDrawKeptReplacesRejected checks that a turned-down function is
// replaced by the next draw and that its class is never drawn again.
func TestDrawKeptReplacesRejected(t *testing.T) {
	var rejected []perm.Perm
	n := 0
	keep := func(p perm.Perm) (bool, error) {
		n++
		if n%3 == 0 {
			rejected = append(rejected, p)
			return false, nil
		}
		return true, nil
	}
	in, err := makeServe(4, serveSizes{warm: 30, clients: 1, perClient: 100}, keep)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.warm) != 30 || len(rejected) != 14 {
		t.Fatalf("%d warm functions, %d rejected; want 30 and 14", len(in.warm), len(rejected))
	}
	class := func(p perm.Perm) uint64 {
		rep, _, _ := canon.Canonicalize(p)
		return canon.Hash(rep)
	}
	out := make(map[uint64]bool)
	for _, p := range rejected {
		out[class(p)] = true
	}
	for _, op := range in.warm {
		if out[class(op.want)] {
			t.Errorf("warm function %s is in a rejected class", op.want)
		}
	}
	never := func(perm.Perm) (bool, error) { return false, nil }
	if _, err := makeServe(4, serveSizes{warm: 1, clients: 1, perClient: 100}, never); err == nil {
		t.Error("a keep that turns everything down did not fail")
	}
}

func TestParseReply(t *testing.T) {
	// The empty cascade (a warm-set or conjugate identity) renders as
	// "(identity)", which circuit.Parse rejects.
	if c, err := parseReply(3, &serve.ResultView{Found: true, Circuit: "(identity)"}); err != nil || c.Len() != 0 {
		t.Errorf("identity reply: %v, %v", c, err)
	}
	a := circuit.New(3)
	a.Append(circuit.NewGate(0), circuit.NewGate(2, 0, 1))
	ok := &serve.ResultView{Found: true, Circuit: a.String(), Gates: 2, QuantumCost: a.QuantumCost()}
	if c, err := parseReply(3, ok); err != nil || c.String() != a.String() {
		t.Errorf("reply %q: %v, %v", ok.Circuit, c, err)
	}
	for _, bad := range []serve.ResultView{
		{Found: true, Circuit: a.String(), Gates: 3, QuantumCost: a.QuantumCost()},
		{Found: true, Circuit: a.String(), Gates: 2, QuantumCost: a.QuantumCost() + 1},
		{Found: true, Circuit: "garbage", Gates: 1},
	} {
		if _, err := parseReply(3, &bad); err == nil {
			t.Errorf("reply %+v passed", bad)
		}
	}
}

// TestCheckSearchFailsGateRejection corrupts one search's circuit before
// core's verify gate sees it: the gate withdraws the circuit
// (StopVerifyFailed), and the re-check must count that op as failed rather
// than as a budget that ran out.
func TestCheckSearchFailsGateRejection(t *testing.T) {
	funcs := makeSearch4(3, 4, 0).funcs
	corrupted := 0
	core.CorruptResultHook = func(c *circuit.Circuit) {
		if corrupted == 0 {
			c.Append(circuit.NewGate(0))
		}
		corrupted++
	}
	defer func() { core.CorruptResultHook = nil }()
	pass, err := runSearchPass(context.Background(), funcs, nil)
	core.CorruptResultHook = nil
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, res := range pass.results {
		if res.StopReason == core.StopVerifyFailed {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("%d searches failed the verify gate, want 1", bad)
	}
	rep := newReport()
	checkSearch(rep, funcs, pass.results, nil)
	if rep.failed != 1 || len(rep.problems) != 1 {
		t.Fatalf("failed %d, problems %v; want the rejected op counted as failed", rep.failed, rep.problems)
	}
	if rep.verified+rep.failed > len(funcs) {
		t.Errorf("verified %d + failed %d of %d ops", rep.verified, rep.failed, len(funcs))
	}

	// A reply that stopped for any reason other than a spent budget is a
	// failure too, on the serve path.
	if budgetRanOutReply(&serve.ResultView{Stop: core.StopVerifyFailed.String()}) ||
		!budgetRanOutReply(&serve.ResultView{Stop: core.StopStepLimit.String()}) {
		t.Error("budgetRanOutReply misreads stop reasons")
	}
}
