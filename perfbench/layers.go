package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/canon"
	"repro/internal/perm"
)

// metricSpec names a metric, its unit, and what it is for. For a
// per-layer metric, moves says which end-to-end metric it should move and
// on which workload.
type metricSpec struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a --trace 0 run reports. failed_frac is printed
// with them but travels in the result's "failed" and "attempted" fields:
// it is 0 on every healthy run, and a metric that is 0 has no median to
// compare against.
var endToEnd = []metricSpec{
	{"throughput_ops_s", "ops/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_p90_ms", "ms", "lower", ""},
	{"gates_total", "gates", "lower", ""},
	{"quantum_cost_total", "cost", "lower", ""},
	{"verified_frac", "ratio", "higher", ""},
	{"setup_s", "s", "lower", ""},
}

// perLayer are the metrics a --trace 1 run reports. Each workload times
// every layer, on its own functions, even one its ops do not use.
var perLayer = []metricSpec{
	{"pprm.from_perm_us", "us", "lower", "latency_p50_ms on search-4var and serve-4var, by its small share of every op"},
	{"canon.canonicalize_us", "us", "lower", "latency_p50_ms on serve-4var (admission cache probe and cache.Put on every request), by a small share"},
	{"cache.lookup_us", "us", "lower", "latency_p50_ms on serve-4var (admission cache probe on every request), by a small share"},
	{"verify.circuit_us", "us", "lower", "latency_p50_ms on search-4var and serve-4var (the verify gate on every circuit found), by a small share"},
	{"pprm.substitute_probe_ns", "ns", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"pprm.substitute_copy_ns", "ns", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"pprm.sorted_ns", "ns", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"core.search_ms", "ms", "lower", "throughput_ops_s, latency_p50_ms, latency_p90_ms on search-4var and serve-4var"},
	{"core.expansions", "count", "lower", "throughput_ops_s on search-4var and serve-4var; compare with gates_total"},
	{"core.nodes", "count", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"core.restarts", "count", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"core.expansions_per_s", "1/s", "higher", "throughput_ops_s, latency_p50_ms on search-4var and serve-4var"},
	{"core.dedup_hit_rate", "ratio", "higher", "throughput_ops_s on search-4var and serve-4var"},
	{"core.peak_queue_mib", "MiB", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"runtime.allocs_per_op", "count", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"runtime.peak_heap_mib", "MiB", "lower", "throughput_ops_s on search-4var and serve-4var"},
	{"serve.hit_roundtrip_us", "us", "lower", "throughput_ops_s on serve-4var, by the tenth of its requests that are hits"},
	{"serve.queue_wait_ms", "ms", "lower", "latency_p90_ms, throughput_ops_s on serve-4var"},
	{"serve.run_ms", "ms", "lower", "latency_p90_ms, throughput_ops_s on serve-4var"},
	{"serve.cache_hit_frac", "ratio", "higher", "failed_frac, throughput_ops_s on serve-4var"},
	{"serve.dedup_frac", "ratio", "higher", "failed_frac, throughput_ops_s on serve-4var"},
	{"serve.shed", "count", "lower", "failed_frac, throughput_ops_s on serve-4var"},
	{"trace.overhead_frac", "ratio", "lower", "none: traced throughput vs untraced, this workload"},
}

// probeCacheLayers calls canon.Canonicalize and cache.Lookup from outside
// on each function. Both also run inside an answered op (Lookup
// canonicalizes and re-verifies); these spans time them on their own. Each
// call is a root span, so its self time is its whole time.
func probeCacheLayers(tr *Tracer, funcs []perm.Perm, c *cache.Cache, fp uint64) {
	for i, p := range funcs {
		s := tr.Begin("canon.Canonicalize", i, -1)
		canon.Canonicalize(p)
		tr.End(s)
		s = tr.Begin("cache.Lookup", i, -1)
		c.Lookup(p, fp)
		tr.End(s)
	}
}

// setCacheLayers reports the per-call times of the answer-path layers.
func (r *report) setCacheLayers(layers map[string]layerTime) {
	r.set("pprm.from_perm_us", "us", layers["pprm.FromPerm"].perCall(time.Microsecond))
	r.set("canon.canonicalize_us", "us", layers["canon.Canonicalize"].perCall(time.Microsecond))
	r.set("cache.lookup_us", "us", layers["cache.Lookup"].perCall(time.Microsecond))
	r.set("verify.circuit_us", "us", layers["verify.Circuit"].perCall(time.Microsecond))
}

// setTraceOverhead is the share of throughput the traced passes lost
// against the untraced passes over the same ops.
func (r *report) setTraceOverhead(untraced, traced time.Duration) {
	r.set("trace.overhead_frac", "ratio", 1-untraced.Seconds()/traced.Seconds())
}

func (r *report) setRuntime(d rtDelta, ops int) {
	r.set("runtime.gc_cpu_frac", "ratio", d.gcCPUFrac)
	r.set("runtime.allocs_per_op", "count", float64(d.allocObjs)/float64(ops))
	r.set("runtime.alloc_bytes_per_op", "B", float64(d.allocBytes)/float64(ops))
	r.set("runtime.peak_heap_mib", "MiB", float64(d.peakHeap)/(1<<20))
}

// setSearch reports the search counters and the core.SynthesizeContext
// spans' self time.
func (r *report) setSearch(search layerTime, t searchTotals) {
	r.set("core.search_ms", "ms", search.perCall(time.Millisecond))
	r.set("core.expansions", "count", float64(t.expansions))
	r.set("core.nodes", "count", float64(t.nodes))
	r.set("core.restarts", "count", float64(t.restarts))
	if search.Self > 0 {
		r.set("core.expansions_per_s", "1/s", float64(t.expansions)/search.Self.Seconds())
	}
	if t.dedupProbes > 0 {
		r.set("core.dedup_hit_rate", "ratio", float64(t.dedupHits)/float64(t.dedupProbes))
	}
	r.set("core.peak_queue_mib", "MiB", float64(t.peakQueue)/(1<<20))
}
