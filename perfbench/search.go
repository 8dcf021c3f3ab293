package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/verify"
)

// search-4var sizes: p90 of 100 ops has 10 samples beyond it.
const (
	search4Funcs  = 100
	search4Warmup = 10
)

// synthesize is one search-4var op, or a reference re-run of a serve request: the library entry
// point rmrls.SynthesizeContext. Traced, it makes the same two calls
// core.SynthesizePermContext makes, each in its own span.
func synthesize(ctx context.Context, tr *Tracer, op int, p perm.Perm, opts core.Options) (core.Result, error) {
	if tr == nil {
		return core.SynthesizePermContext(ctx, p, opts)
	}
	root := tr.Begin("op", op, -1)
	defer tr.End(root)
	s := tr.Begin("pprm.FromPerm", op, root)
	spec, err := pprm.FromPerm(p)
	tr.End(s)
	if err != nil {
		return core.Result{}, err
	}
	s = tr.Begin("core.SynthesizeContext", op, root)
	res := core.SynthesizeContext(ctx, spec, opts)
	tr.End(s)
	return res, nil
}

// searchPass is one timed pass over the search-4var functions.
type searchPass struct {
	results []core.Result
	round
}

func runSearchPass(ctx context.Context, funcs []perm.Perm, tr *Tracer) (searchPass, error) {
	pass := searchPass{results: make([]core.Result, len(funcs)), round: round{lat: make([]time.Duration, len(funcs))}}
	opts := searchOptions(search4Steps)
	start := time.Now()
	for i, p := range funcs {
		t0 := time.Now()
		res, err := synthesize(ctx, tr, i, p, opts)
		pass.lat[i] = time.Since(t0)
		if err != nil {
			return pass, err
		}
		pass.results[i] = res
	}
	pass.elapsed = time.Since(start)
	for i := range pass.results {
		if pass.results[i].Found {
			pass.answered++
		}
	}
	return pass, nil
}

// setupSearch4 generates the inputs, runs the untimed warm-up searches and
// collects garbage.
func setupSearch4(ctx context.Context, seed uint64) (search4Inputs, time.Duration, error) {
	t0 := time.Now()
	in := makeSearch4(seed, search4Funcs, search4Warmup)
	opts := searchOptions(search4Steps)
	for _, p := range in.warmup {
		if _, err := core.SynthesizePermContext(ctx, p, opts); err != nil {
			return in, 0, err
		}
	}
	runtime.GC()
	return in, time.Since(t0), nil
}

func runSearch4(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceSearch4(ctx, cfg, rep)
	}
	var rounds []round
	var first searchPass
	for r := 0; r < roundsPerRun; r++ {
		in, setup, err := setupSearch4(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		pass, err := runSearchPass(ctx, in.funcs, nil)
		if err != nil {
			return nil, err
		}
		pass.setup = setup
		rounds = append(rounds, pass.round)
		if r == 0 {
			first = pass
			checkSearch(rep, in.funcs, pass.results, nil)
			continue
		}
		sameResults(rep, fmt.Sprintf("round %d", r), first.results, pass.results)
	}
	return rep, rep.setEndToEnd(rounds)
}

// traceSearch4 runs the functions untraced, traced, untraced and traced
// again, replays the PPRM kernels on their root specs, and probes the
// cache and serve layers with the same functions.
func traceSearch4(ctx context.Context, cfg runConfig, rep *report) error {
	in, _, err := setupSearch4(ctx, cfg.seed)
	if err != nil {
		return err
	}
	watch := startRuntimeWatch()
	pass, err := runSearchPass(ctx, in.funcs, nil)
	if err != nil {
		return err
	}
	rt := watch.finish()
	checkTr := newTracer(time.Now(), len(in.funcs))
	totals := checkSearch(rep, in.funcs, pass.results, checkTr)

	tr := newTracer(time.Now(), 3*len(in.funcs))
	traced, err := runSearchPass(ctx, in.funcs, tr)
	if err != nil {
		return err
	}
	sameResults(rep, "traced pass", pass.results, traced.results)
	// A second untraced and traced pair in the same order cancels a steady
	// drift of the machine's speed out of the overhead.
	again, err := runSearchPass(ctx, in.funcs, nil)
	if err != nil {
		return err
	}
	tracedAgain, err := runSearchPass(ctx, in.funcs, newTracer(time.Now(), 3*len(in.funcs)))
	if err != nil {
		return err
	}
	sameResults(rep, "second untraced pass", pass.results, again.results)
	sameResults(rep, "second traced pass", pass.results, tracedAgain.results)
	ktr := newTracer(time.Now(), 3*kernelReps)
	kern, err := replayKernels(in.funcs, ktr)
	if err != nil {
		return err
	}
	// The cache and serve layers do no work in this workload; time them on
	// its functions anyway: a cache holding the circuits just found, and a
	// server given each function cold and then as a cache hit.
	c := cache.New()
	opts := searchOptions(search4Steps)
	fp := core.OptionsFingerprint(&opts)
	for i, res := range pass.results {
		if res.Found {
			if _, _, err := c.Put(in.funcs[i], fp, res.Circuit); err != nil {
				return err
			}
		}
	}
	probeTr := newTracer(time.Now(), 2*len(in.funcs))
	probeCacheLayers(probeTr, in.funcs, c, fp)
	replies, serveTr, stats, err := probeServe(rep, in.funcs, search4Steps)
	if err != nil {
		return err
	}
	layers := aggregate(tr, checkTr, ktr, probeTr)
	rep.setTraceOverhead(pass.elapsed+again.elapsed, traced.elapsed+tracedAgain.elapsed)
	rep.setRuntime(rt, len(in.funcs))
	rep.setSearch(layers["core.SynthesizeContext"], totals)
	rep.setCacheLayers(layers)
	kern.report(rep, layers)
	rep.setServeLayers([][]reply{replies}, []*Tracer{serveTr}, stats)
	return writeSpans(cfg.spansPath, tr, checkTr, ktr, probeTr, serveTr)
}

// checkSearch re-simulates every found circuit against its function and
// adds the answers to the report's totals.
func checkSearch(rep *report, funcs []perm.Perm, results []core.Result, tr *Tracer) searchTotals {
	var totals searchTotals
	rep.attempted += len(funcs)
	for i := range results {
		res := &results[i]
		totals.add(res)
		if !res.Found {
			if !budgetRanOut(res.Err, res.StopReason) {
				rep.failed++
				rep.problem("op %d: no circuit, stop=%s err=%v", i, res.StopReason, res.Err)
			}
			continue
		}
		rep.addCircuit(res.Circuit)
		s := tr.Begin("verify.Circuit", i, -1)
		err := verify.Circuit(verify.StageClient, res.Circuit, funcs[i])
		tr.End(s)
		if err != nil {
			rep.failed++
			rep.problem("op %d: %v", i, err)
			continue
		}
		rep.verified++
	}
	rep.counts.Expansions += totals.expansions
	return totals
}

// budgetRanOut reports whether a search that returned no circuit stopped
// only because its budget or search space ran out: a valid answer, though
// not a verified circuit. Any other reason without a circuit — the verify
// gate rejecting a miscompiled circuit, a recovered panic, a deadline or a
// cancellation — is a failure.
func budgetRanOut(err error, stop core.StopReason) bool {
	return err == nil && slices.Contains(budgetStops, stop)
}

var budgetStops = []core.StopReason{core.StopStepLimit, core.StopRestartsExhausted, core.StopQueueExhausted}

// sameResults demands that a repeat of the op list answered exactly as the
// first pass did.
func sameResults(rep *report, what string, want, got []core.Result) {
	for i := range want {
		if d := diffResults(&want[i], &got[i]); d != "" {
			rep.problem("%s, op %d: %s", what, i, d)
		}
	}
}

// diffResults names the first way two runs of one search differ, or "".
func diffResults(a, b *core.Result) string {
	switch {
	case a.Found != b.Found:
		return fmt.Sprintf("found %v vs %v", a.Found, b.Found)
	case a.Steps != b.Steps:
		return fmt.Sprintf("steps %d vs %d", a.Steps, b.Steps)
	case a.Nodes != b.Nodes:
		return fmt.Sprintf("nodes %d vs %d", a.Nodes, b.Nodes)
	case a.Restarts != b.Restarts:
		return fmt.Sprintf("restarts %d vs %d", a.Restarts, b.Restarts)
	case a.Found && a.Circuit.String() != b.Circuit.String():
		return fmt.Sprintf("circuit %s vs %s", a.Circuit, b.Circuit)
	}
	return ""
}
