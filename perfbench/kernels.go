package main

import (
	"time"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/pprm"
)

// The search calls the PPRM kernels only from inside core, so they are
// timed by replaying them from outside: every target × single-term factor
// of every search-4var root spec (the factors core.factorsFor offers under
// DefaultOptions: the terms of v_out,target without v_target, plus the
// constant 1), kernelReps times, one span per kernel batch.
const kernelReps = 50

type kernelCalls struct {
	probe, copy, sorted int
	sink                int // folds in every replayed result, keeping it live
}

type kernelCase struct {
	spec    *pprm.Spec
	target  int
	factor  bits.Mask
	touched []int // outputs the substitution rewrites (the copy's unshared sets)
}

func kernelCases(funcs []perm.Perm) ([]kernelCase, error) {
	var cases []kernelCase
	for _, p := range funcs {
		spec, err := pprm.FromPerm(p)
		if err != nil {
			return nil, err
		}
		for target := 0; target < spec.N; target++ {
			tb := bits.Bit(target)
			var touched []int
			for j := range spec.Out {
				for _, t := range spec.Out[j].Terms() {
					if t&tb != 0 {
						touched = append(touched, j)
						break
					}
				}
			}
			sawConst := false
			factors := []bits.Mask{}
			for _, t := range spec.Out[target].Terms() {
				if t&tb == 0 {
					factors = append(factors, t)
					sawConst = sawConst || t == 0
				}
			}
			if !sawConst {
				factors = append(factors, 0)
			}
			for _, f := range factors {
				cases = append(cases, kernelCase{spec: spec, target: target, factor: f, touched: touched})
			}
		}
	}
	return cases, nil
}

// replayKernels times SubstituteProbe, SubstituteCopy and, on each copy's
// freshly built (unsorted) output sets, TermSet.Sorted.
func replayKernels(funcs []perm.Perm, tr *Tracer) (kernelCalls, error) {
	var n kernelCalls
	cases, err := kernelCases(funcs)
	if err != nil {
		return n, err
	}
	var scratch []bits.Mask
	children := make([]*pprm.Spec, len(cases))
	for rep := 0; rep < kernelReps; rep++ {
		s := tr.Begin("pprm.SubstituteProbe", -1, -1)
		for _, c := range cases {
			var d int
			d, _, scratch = c.spec.SubstituteProbe(c.target, c.factor, scratch)
			n.sink += d
		}
		tr.End(s)
		n.probe += len(cases)

		s = tr.Begin("pprm.SubstituteCopy", -1, -1)
		for i, c := range cases {
			children[i], _ = c.spec.SubstituteCopy(c.target, c.factor)
		}
		tr.End(s)
		n.copy += len(cases)

		s = tr.Begin("pprm.TermSet.Sorted", -1, -1)
		for i, c := range cases {
			for _, j := range c.touched {
				n.sink += len(children[i].Out[j].Sorted())
				n.sorted++
			}
		}
		tr.End(s)
	}
	return n, nil
}

func (n kernelCalls) report(rep *report, layers map[string]layerTime) {
	perCall := func(name string, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(layers[name].Self) / float64(calls) / float64(time.Nanosecond)
	}
	rep.set("pprm.substitute_probe_ns", "ns", perCall("pprm.SubstituteProbe", n.probe))
	rep.set("pprm.substitute_copy_ns", "ns", perCall("pprm.SubstituteCopy", n.copy))
	rep.set("pprm.sorted_ns", "ns", perCall("pprm.TermSet.Sorted", n.sorted))
}
