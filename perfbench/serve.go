package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/serve"
	"repro/internal/verify"
)

// serveSizes shapes a serve workload: 2 clients (the reference box's
// nproc), each with its own request sequence of which cold per mille are
// 4-variable functions of fresh classes searched to their budget; the rest
// are conjugate hits on the warm set.
type serveSizes struct {
	warm, clients, perClient int
	warmup                   int // untimed conjugate requests per client
	cold                     int // per mille
}

// serve-4var: nine in ten requests are a full search, so each op spans
// many of the box's speed spells and its latency is steady.
var serve4 = serveSizes{warm: 64, clients: 2, perClient: 100, warmup: 20, cold: 900}

// serveRetries is the per-request retry budget on 429 and 503.
const serveRetries = 3

// liveServer is an in-process rmrlsd on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	cache  *cache.Cache
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startServer() (*liveServer, error) {
	c := cache.New() // memory-only: no CacheDir, so no file and no fsync
	srv, err := serve.New(serve.Config{
		// rmrlsd's defaults: 2 workers, and SearchWorkers 0, which keeps
		// claimSearchWorkers from choosing the engine by queue depth —
		// every job runs the sequential engine. The reference re-runs
		// after the timed phase use that engine and would flag a change.
		Workers:       2,
		SearchWorkers: 0,
		Cache:         c,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: rmrlsd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	ls := &liveServer{
		srv:    srv,
		cache:  c,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serve4.clients, DisableCompression: true},
			Timeout:   backstop + 30*time.Second,
		},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener, drains the worker pool and waits for both.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := ls.srv.Drain(ctx); err == nil {
		err = derr
	}
	ls.client.CloseIdleConnections()
	return err
}

// reply is one request's outcome as the client saw it.
type reply struct {
	status int
	job    serve.JobView
	lat    time.Duration
	sheds  int
	err    string // transport error or non-job response body
}

// post submits one request, retrying 429 and 503 with the server's
// Retry-After hint; a request still shed after serveRetries counts as
// failed. lat covers the retries.
func (ls *liveServer) post(body []byte) reply {
	var r reply
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := ls.client.Post(ls.url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = err.Error()
			break
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		if rerr != nil {
			r.err = rerr.Error()
			break
		}
		retry := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		if retry && attempt < serveRetries {
			if resp.StatusCode == http.StatusTooManyRequests {
				r.sheds++
			}
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(secs, 1)) * time.Second)
			continue
		}
		if err := json.Unmarshal(data, &r.job); err != nil || r.job.ID == "" {
			r.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		break
	}
	r.lat = time.Since(start)
	return r
}

// health reads /v1/healthz.
func (ls *liveServer) health() (serve.Stats, error) {
	resp, err := ls.client.Get(ls.url + "/v1/healthz")
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	var h struct {
		Stats serve.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return serve.Stats{}, fmt.Errorf("healthz: %w", err)
	}
	return h.Stats, nil
}

// drive runs each client's sequence on its own goroutine, closed loop, and
// returns the replies in sequence order per client and the phase's length.
func (ls *liveServer) drive(seqs [][]serveOp, tr []*Tracer) ([][]reply, time.Duration) {
	out := make([][]reply, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range seqs {
		out[c] = make([]reply, len(seqs[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var t *Tracer
			if tr != nil {
				t = tr[c]
			}
			for i, op := range seqs[c] {
				s := t.Begin("serve.roundtrip", i, -1)
				out[c][i] = ls.post(op.body)
				t.End(s)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// setupServe starts a server and generates the inputs, submitting each
// warm-set function as it is drawn, one request at a time; then it sends
// the warm-up requests and collects garbage.
func setupServe(seed uint64, sz serveSizes) (serveInputs, *liveServer, []reply, error) {
	ls, err := startServer()
	if err != nil {
		return serveInputs{}, nil, nil, err
	}
	var warm []reply
	submit := func(p perm.Perm) (bool, error) {
		body, err := requestBody(hitOp, p)
		if err != nil {
			return false, err
		}
		r := ls.post(body)
		switch {
		case r.status == http.StatusOK && r.job.Result != nil && r.job.Result.Found:
			warm = append(warm, r)
			return true, nil
		case r.status == http.StatusUnprocessableEntity:
			return false, nil // no circuit within the budget
		}
		return false, fmt.Errorf("warm request %s: HTTP %d %s", p, r.status, r.err)
	}
	in, err := makeServe(seed, sz, submit)
	if err != nil {
		ls.stop()
		return in, nil, nil, err
	}
	ls.drive(in.warmup, nil)
	runtime.GC()
	return in, ls, warm, nil
}

// servePass is one set-up and timed phase on a fresh server.
type servePass struct {
	in      serveInputs
	warm    []reply
	replies [][]reply
	stats   serve.Stats
	round
}

// runServePass sets up a server and drives the clients' sequences through
// it. With tracers, each client records a span per request and the layer
// probes run against the server's cache afterwards.
func runServePass(seed uint64, sz serveSizes, trs []*Tracer, watch bool, probe *Tracer) (servePass, rtDelta, error) {
	var pass servePass
	var rt rtDelta
	t0 := time.Now()
	in, ls, warm, err := setupServe(seed, sz)
	if err != nil {
		return pass, rt, err
	}
	pass.in, pass.warm, pass.setup = in, warm, time.Since(t0)
	var w *heapWatch
	if watch {
		w = startRuntimeWatch()
	}
	pass.replies, pass.elapsed = ls.drive(in.clients, trs)
	if watch {
		rt = w.finish()
	}
	stats, herr := ls.health()
	if probe != nil {
		probeServeLayers(probe, &in, ls.cache)
	}
	if err := ls.stop(); err != nil {
		return pass, rt, err
	}
	if herr != nil {
		return pass, rt, herr
	}
	pass.stats = stats
	for _, rs := range pass.replies {
		for _, r := range rs {
			pass.lat = append(pass.lat, r.lat)
			if r.job.Result != nil && r.job.Result.Found {
				pass.answered++
			}
		}
	}
	return pass, rt, nil
}

// sameReplies demands that a repeat of the requests got the same circuits
// and search counters as the first pass.
func sameReplies(rep *report, what string, want, got *servePass) {
	if warmCircuits(want.warm) != warmCircuits(got.warm) {
		rep.problem("%s: warm-set circuits differ", what)
	}
	for c := range want.replies {
		for i := range want.replies[c] {
			a, b := want.replies[c][i].job.Result, got.replies[c][i].job.Result
			if a == nil || b == nil || a.Found != b.Found || a.Circuit != b.Circuit || a.Steps != b.Steps {
				rep.problem("%s: client %d op %d answered differently", what, c, i)
			}
		}
	}
}

func warmCircuits(warm []reply) string {
	var b bytes.Buffer
	for _, r := range warm {
		b.WriteString(r.job.Result.Circuit)
		b.WriteByte(';')
	}
	return b.String()
}

// serveWorkload runs a serve workload of the given shape.
func serveWorkload(sz serveSizes) func(context.Context, runConfig) (*report, error) {
	return func(ctx context.Context, cfg runConfig) (*report, error) {
		return runServe(ctx, cfg, sz)
	}
}

func runServe(ctx context.Context, cfg runConfig, sz serveSizes) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceServe(ctx, cfg, sz, rep)
	}
	var rounds []round
	var first servePass
	for r := 0; r < roundsPerRun; r++ {
		pass, _, err := runServePass(cfg.seed, sz, nil, false, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, pass.round)
		if r == 0 {
			first = pass
			continue
		}
		sameReplies(rep, fmt.Sprintf("round %d", r), &first, &pass)
	}
	if _, err := checkServe(ctx, rep, &first, nil); err != nil {
		return nil, err
	}
	return rep, rep.setEndToEnd(rounds)
}

// traceServe runs the requests untraced, traced, untraced and traced
// again, each on a fresh server; the layer probes follow the first traced
// pass, and the PPRM kernels are replayed on the cold functions' specs.
func traceServe(ctx context.Context, cfg runConfig, sz serveSizes, rep *report) error {
	pass, rt, err := runServePass(cfg.seed, sz, nil, true, nil)
	if err != nil {
		return err
	}
	checkTr := newTracer(time.Now(), sz.clients*sz.perClient)
	totals, err := checkServe(ctx, rep, &pass, checkTr)
	if err != nil {
		return err
	}
	trs := make([]*Tracer, sz.clients)
	for c := range trs {
		trs[c] = newTracer(time.Now(), sz.perClient)
	}
	probeTr := newTracer(time.Now(), 3*sz.clients*sz.perClient)
	traced, _, err := runServePass(cfg.seed, sz, trs, false, probeTr)
	if err != nil {
		return err
	}
	sameReplies(rep, "traced pass", &pass, &traced)
	// A second untraced and traced pair in the same order cancels a steady
	// drift of the machine's speed out of the overhead.
	again, _, err := runServePass(cfg.seed, sz, nil, false, nil)
	if err != nil {
		return err
	}
	trs2 := make([]*Tracer, sz.clients)
	for c := range trs2 {
		trs2[c] = newTracer(time.Now(), sz.perClient)
	}
	tracedAgain, _, err := runServePass(cfg.seed, sz, trs2, false, nil)
	if err != nil {
		return err
	}
	sameReplies(rep, "second untraced pass", &pass, &again)
	sameReplies(rep, "second traced pass", &pass, &tracedAgain)
	var cold []perm.Perm
	for _, seq := range pass.in.clients {
		for _, op := range seq {
			if op.kind != hitOp {
				cold = append(cold, op.want)
			}
		}
	}
	ktr := newTracer(time.Now(), 3*kernelReps)
	kern, err := replayKernels(cold, ktr)
	if err != nil {
		return err
	}
	all := append(trs, checkTr, probeTr, ktr)
	layers := aggregate(all...)
	rep.setTraceOverhead(pass.elapsed+again.elapsed, traced.elapsed+tracedAgain.elapsed)
	rep.setRuntime(rt, rep.attempted)
	rep.setSearch(layers["core.SynthesizeContext"], totals)
	kern.report(rep, layers)
	rep.setCacheLayers(layers)
	rep.setServeLayers(traced.replies, trs, traced.stats)
	return writeSpans(cfg.spansPath, all...)
}

// checkServe re-checks every reply after the timed phase: the HTTP status,
// the source (conjugates from the cache, cold functions from a worker),
// the circuit text parsed back and its gate count against the reported
// one, a re-simulation against the requested function, and the circuit
// itself against a reference computed here — for a conjugate, a local
// cache holding the warm circuits; for a cold function, the library's
// sequential engine with the options rmrlsd compiles for the request. The
// search totals it returns are those of the reference re-runs, which must
// equal the server's.
func checkServe(ctx context.Context, rep *report, pass *servePass, tr *Tracer) (searchTotals, error) {
	in, warm, replies := &pass.in, pass.warm, pass.replies
	var totals searchTotals
	ref := cache.New()
	hitOpts := requestOptions(hitOp)
	fp := core.OptionsFingerprint(&hitOpts)
	for i, op := range in.warm {
		c, err := parseReply(3, warm[i].job.Result)
		if err != nil {
			return totals, fmt.Errorf("warm request %d: %w", i, err)
		}
		if _, _, err := ref.Put(op.want, fp, c); err != nil {
			return totals, err
		}
		checkReference(ctx, rep, fmt.Sprintf("warm request %d", i), op, &warm[i], nil)
	}
	for c := range replies {
		for i, r := range replies[c] {
			op := in.clients[c][i]
			where := fmt.Sprintf("client %d op %d (%s)", c, i, op.kind)
			rep.attempted++
			res := r.job.Result
			if r.status == http.StatusUnprocessableEntity && res != nil && !res.Found && budgetRanOutReply(res) {
				// The budget ran out first: a valid answer, not a failure,
				// but not a verified circuit either.
				want := checkReference(ctx, rep, where, op, &replies[c][i], tr)
				totals.add(&want)
				continue
			}
			if r.status != http.StatusOK || res == nil || !res.Found {
				rep.failed++
				rep.problem("%s: HTTP %d shed=%d stop=%s %s", where, r.status, r.sheds, replyStop(res), r.err)
				continue
			}
			// A conjugate that equals its warm-set function is the warm
			// request itself and is answered by idempotency dedup.
			if fromCache := res.CacheHit || r.job.Deduplicated; fromCache != (op.kind == hitOp) {
				rep.problem("%s: cache_hit=%v deduplicated=%v source=%s", where, res.CacheHit, r.job.Deduplicated, r.job.Source)
			}
			circ, err := parseReply(op.want.Vars(), res)
			if err == nil {
				s := tr.Begin("verify.Circuit", i, -1)
				err = verify.Circuit(verify.StageClient, circ, op.want)
				tr.End(s)
			}
			if err != nil {
				rep.failed++
				rep.problem("%s: %v", where, err)
				continue
			}
			rep.verified++
			rep.counts.Gates += int64(res.Gates)
			rep.counts.QuantumCost += int64(res.QuantumCost)
			if op.kind == hitOp {
				hit, ok := ref.Lookup(op.want, fp)
				if !ok || hit.Circuit.String() != res.Circuit {
					rep.problem("%s: answered %s, the warm circuit conjugates to %v", where, res.Circuit, hit.Circuit)
				}
				continue
			}
			want := checkReference(ctx, rep, where, op, &replies[c][i], tr)
			totals.add(&want)
		}
	}
	rep.counts.Expansions = totals.expansions
	return totals, nil
}

// budgetRanOutReply is budgetRanOut for a server reply.
func budgetRanOutReply(res *serve.ResultView) bool {
	return slices.ContainsFunc(budgetStops, func(s core.StopReason) bool { return s.String() == res.Stop })
}

func replyStop(res *serve.ResultView) string {
	if res == nil {
		return "-"
	}
	return res.Stop
}

// parseReply parses the returned circuit text and checks the reported
// gate count and quantum cost against it.
func parseReply(wires int, res *serve.ResultView) (*circuit.Circuit, error) {
	c := circuit.New(wires)
	if res.Gates > 0 {
		// The empty cascade renders as "(identity)", which Parse rejects.
		var err error
		if c, err = circuit.Parse(wires, res.Circuit); err != nil {
			return nil, fmt.Errorf("unparseable circuit %q: %w", res.Circuit, err)
		}
	}
	if c.Len() != res.Gates || c.QuantumCost() != res.QuantumCost {
		return nil, fmt.Errorf("reported %d gates / cost %d, circuit %q has %d / %d",
			res.Gates, res.QuantumCost, res.Circuit, c.Len(), c.QuantumCost())
	}
	return c, nil
}

// checkReference re-runs a cold request on the library's sequential engine
// and demands the server's exact answer and search counters. Traced, the
// re-run's spans time the search layer on this workload's cold functions.
func checkReference(ctx context.Context, rep *report, where string, op serveOp, r *reply, tr *Tracer) core.Result {
	want, err := synthesize(ctx, tr, -1, op.want, requestOptions(op.kind))
	res := r.job.Result
	switch {
	case err != nil:
		rep.problem("%s: reference run: %v", where, err)
	case !want.Found && !budgetRanOut(want.Err, want.StopReason):
		rep.problem("%s: reference run: no circuit, stop=%s err=%v", where, want.StopReason, want.Err)
	case r.job.Source != "worker" || r.job.Deduplicated:
		rep.problem("%s: source=%s deduplicated=%v, want a fresh worker search", where, r.job.Source, r.job.Deduplicated)
	case want.Found != res.Found || want.Steps != res.Steps || want.Nodes != res.Nodes || want.Restarts != res.Restarts:
		rep.problem("%s: server found=%v in %d steps, the sequential engine found=%v in %d", where, res.Found, res.Steps, want.Found, want.Steps)
	case want.Found && want.Circuit.String() != res.Circuit:
		rep.problem("%s: server answered %s, the sequential engine %v", where, res.Circuit, want.Circuit)
	}
	return want
}

// probeServeLayers times, from outside, the layers rmrlsd runs inside each
// request: pprm.FromPerm (compileRequest) on every request, and
// canon.Canonicalize and cache.Lookup (the admission-time cache probe) on
// every conjugate, against the server's own cache.
func probeServeLayers(tr *Tracer, in *serveInputs, c *cache.Cache) {
	var hits []perm.Perm
	op := 0
	for _, seq := range in.clients {
		for _, o := range seq {
			s := tr.Begin("pprm.FromPerm", op, -1)
			pprm.FromPerm(o.want)
			tr.End(s)
			if o.kind == hitOp {
				hits = append(hits, o.want)
			}
			op++
		}
	}
	hitOpts := requestOptions(hitOp)
	probeCacheLayers(tr, hits, c, core.OptionsFingerprint(&hitOpts))
}

// probeServe times the serve layers on a workload that does not otherwise
// use them: each function goes to a fresh in-process server twice, first
// cold with the workload's step budget, then with one step more — a new
// job, whose class the cache now holds.
func probeServe(rep *report, funcs []perm.Perm, steps int) ([]reply, *Tracer, serve.Stats, error) {
	ls, err := startServer()
	if err != nil {
		return nil, nil, serve.Stats{}, err
	}
	tr := newTracer(time.Now(), 2*len(funcs))
	var replies []reply
	for extra := 0; extra < 2; extra++ {
		for i, p := range funcs {
			body, err := json.Marshal(&serve.Request{
				Spec:   serve.SpecInput{Perm: p.String()},
				Budget: serve.Budget{TimeMillis: backstop.Milliseconds(), Steps: steps + extra},
				Wait:   true,
			})
			if err != nil {
				ls.stop()
				return nil, nil, serve.Stats{}, err
			}
			s := tr.Begin("serve.roundtrip", len(replies), -1)
			r := ls.post(body)
			tr.End(s)
			unsolved := r.status == http.StatusUnprocessableEntity && r.job.Result != nil && budgetRanOutReply(r.job.Result)
			if r.status != http.StatusOK && !unsolved {
				rep.problem("serve probe, function %d: HTTP %d %s", i, r.status, r.err)
			}
			replies = append(replies, r)
		}
	}
	stats, herr := ls.health()
	if err := ls.stop(); err != nil {
		return nil, nil, stats, err
	}
	return replies, tr, stats, herr
}

// setServeLayers reports the serve-layer metrics of the traced pass.
func (r *report) setServeLayers(replies [][]reply, trs []*Tracer, stats serve.Stats) {
	var hitRT []float64
	var wait, run time.Duration
	var workerJobs, hits, deduped, ops int
	for c := range replies {
		for i, rp := range replies[c] {
			ops++
			if rp.job.Deduplicated {
				deduped++
			}
			if rp.job.Result != nil && rp.job.Result.CacheHit {
				hits++
			}
			switch {
			case rp.job.Source == "cache":
				sp := trs[c].spans[i]
				hitRT = append(hitRT, float64(sp.End-sp.Start)/float64(time.Microsecond))
			case rp.job.Source == "worker" && !rp.job.Deduplicated && rp.job.StartedAt != nil && rp.job.FinishedAt != nil:
				workerJobs++
				wait += rp.job.StartedAt.Sub(rp.job.SubmittedAt)
				run += rp.job.FinishedAt.Sub(*rp.job.StartedAt)
			}
		}
	}
	if len(hitRT) > 0 {
		r.set("serve.hit_roundtrip_us", "us", medianFloat(hitRT))
	}
	if workerJobs > 0 {
		r.set("serve.queue_wait_ms", "ms", ms(wait)/float64(workerJobs))
		r.set("serve.run_ms", "ms", ms(run)/float64(workerJobs))
	}
	r.set("serve.cache_hit_frac", "ratio", float64(hits)/float64(ops))
	r.set("serve.dedup_frac", "ratio", float64(deduped)/float64(ops))
	r.set("serve.shed", "count", float64(stats.Shed+stats.RateLimited))
}
