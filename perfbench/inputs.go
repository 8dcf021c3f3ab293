package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Every input is generated from --seed before any timing starts. Each
// workload and each purpose within it draws from its own splitmix stream,
// so resizing one list never shifts another.
func stream(seed uint64, purpose string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rng.New(seed ^ h.Sum64())
}

// Step budgets. Every search is bounded in expansions, so its work is the
// same on any machine; the time limit is only a backstop, equal to
// rmrlsd's -max-time ceiling and far above any op. At search4Steps about
// 1 in 100 random 4-variable functions stops unsolved: a valid answer
// without a circuit (HTTP 422 from the server).
const (
	search4Steps = 6000 // every 4-variable search; improvement runs to exactly this
	steps3       = 1000 // serve-4var's 3-variable warm-set and conjugate requests
	backstop     = time.Minute
)

// searchOptions is core.DefaultOptions with a step budget: the options
// rmrlsd compiles for a request with that budget (its memory ceiling is
// 512 MiB; no 3- or 4-variable search comes near either ceiling).
func searchOptions(steps int) core.Options {
	o := core.DefaultOptions()
	o.TotalSteps = steps
	o.TimeLimit = backstop
	o.MaxMemory = 512 << 20
	return o
}

// randomTransform draws a wire permutation and a polarity on n wires.
func randomTransform(n int, src *rng.Source) canon.Transform {
	return canon.Transform{Wires: src.Perm(n), Polarity: uint32(src.Intn(1 << uint(n)))}
}

// classPicker draws random functions whose canonical classes (canon.Hash
// of the canon.Canonicalize representative) are pairwise distinct. Across
// one picker, no function can be answered from the cache entry of another.
type classPicker struct {
	src  *rng.Source
	used map[uint64]bool
}

func newClassPicker(src *rng.Source) *classPicker {
	return &classPicker{src: src, used: make(map[uint64]bool)}
}

// maxDraws bounds the rejection sampling; 3 variables have 984 classes, so
// asking for most of them would otherwise loop on the rarest.
const maxDraws = 1 << 16

func (c *classPicker) draw(n int) (perm.Perm, error) {
	for i := 0; i < maxDraws; i++ {
		p := perm.Random(n, c.src)
		rep, _, err := canon.Canonicalize(p)
		if err != nil {
			return nil, err
		}
		if h := canon.Hash(rep); !c.used[h] {
			c.used[h] = true
			return p, nil
		}
	}
	return nil, fmt.Errorf("no new %d-variable class in %d draws (%d used)", n, maxDraws, len(c.used))
}

// --- search-4var ---

type search4Inputs struct {
	funcs, warmup []perm.Perm
}

func makeSearch4(seed uint64, funcs, warmup int) search4Inputs {
	var in search4Inputs
	src := stream(seed, "search-4var/funcs")
	for i := 0; i < funcs; i++ {
		in.funcs = append(in.funcs, perm.Random(4, src))
	}
	src = stream(seed, "search-4var/warmup")
	for i := 0; i < warmup; i++ {
		in.warmup = append(in.warmup, perm.Random(4, src))
	}
	return in
}

// --- serve-4var ---

// keepFunc is asked, in draw order, whether a drawn function joins the
// set the cache is filled from; set-up answers by searching it cold. A
// function the search cannot solve within its budget (a few 3-variable
// functions have no solution under DefaultOptions at any budget) is
// replaced by the next draw, and its class stays excluded.
type keepFunc func(perm.Perm) (bool, error)

// maxRejects bounds how many drawn functions keep may turn down.
const maxRejects = 64

func drawKept(c *classPicker, n, count int, keep keepFunc) ([]perm.Perm, error) {
	var out []perm.Perm
	for rejects := 0; len(out) < count; {
		p, err := c.draw(n)
		if err != nil {
			return nil, err
		}
		ok, err := keep(p)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, p)
			continue
		}
		if rejects++; rejects > maxRejects {
			return nil, fmt.Errorf("%d drawn functions turned down", rejects)
		}
	}
	return out, nil
}

type opKind uint8

const (
	hitOp  opKind = iota // interactive 3-variable conjugate of a warm-set function
	coldOp               // interactive 4-variable function of a fresh class, searched to its budget
)

func (k opKind) String() string {
	return [...]string{"hit", "cold"}[k]
}

// serveOp is one request: the function it asks for and its JSON body.
type serveOp struct {
	kind opKind
	want perm.Perm
	body []byte
}

type serveInputs struct {
	warm    []serveOp   // submitted and solved in set-up, in order
	clients [][]serveOp // timed phase: one fixed sequence per client
	warmup  [][]serveOp // untimed conjugate requests before the timed phase
}

func requestBody(k opKind, p perm.Perm) ([]byte, error) {
	req := serve.Request{
		Spec:   serve.SpecInput{Perm: p.String()},
		Budget: serve.Budget{TimeMillis: backstop.Milliseconds(), Steps: requestSteps(k)},
		Wait:   true,
	}
	return json.Marshal(&req)
}

func requestSteps(k opKind) int {
	if k == coldOp {
		return search4Steps
	}
	return steps3
}

// requestOptions mirrors the core.Options rmrlsd compiles from requestBody.
func requestOptions(k opKind) core.Options {
	return searchOptions(requestSteps(k))
}

func makeOp(k opKind, p perm.Perm) (serveOp, error) {
	b, err := requestBody(k, p)
	return serveOp{kind: k, want: p, body: b}, err
}

// makeServe draws the warm set and the cold functions from canonical
// classes distinct from each other, so whether a request hits the cache
// never depends on which client got there first. keep is asked for each
// warm-set function in draw order; set-up answers by submitting it.
func makeServe(seed uint64, sz serveSizes, keep keepFunc) (serveInputs, error) {
	var in serveInputs
	warmFuncs, err := drawKept(newClassPicker(stream(seed, "serve-4var/warm")), 3, sz.warm, keep)
	if err != nil {
		return in, err
	}
	for _, p := range warmFuncs {
		// A warm-set request searches cold; every later conjugate of it
		// carries the same options and so finds its cache entry.
		op, err := makeOp(hitOp, p)
		if err != nil {
			return in, err
		}
		in.warm = append(in.warm, op)
	}
	cold := newClassPicker(stream(seed, "serve-4var/cold"))
	hit := func(src *rng.Source) (serveOp, error) {
		f := warmFuncs[src.Intn(len(warmFuncs))]
		return makeOp(hitOp, randomTransform(3, src).Conjugate(f))
	}
	for c := 0; c < sz.clients; c++ {
		src := stream(seed, fmt.Sprintf("serve-4var/client%d", c))
		nCold := sz.perClient * sz.cold / 1000
		order := src.Perm(sz.perClient) // op i is cold when its rank in order is below nCold
		seq := make([]serveOp, sz.perClient)
		for i, r := range order {
			if r >= nCold {
				if seq[i], err = hit(src); err != nil {
					return in, err
				}
				continue
			}
			p, err := cold.draw(4)
			if err != nil {
				return in, err
			}
			if seq[i], err = makeOp(coldOp, p); err != nil {
				return in, err
			}
		}
		in.clients = append(in.clients, seq)
		wsrc := stream(seed, fmt.Sprintf("serve-4var/warmup%d", c))
		wu := make([]serveOp, sz.warmup)
		for i := range wu {
			if wu[i], err = hit(wsrc); err != nil {
				return in, err
			}
		}
		in.warmup = append(in.warmup, wu)
	}
	return in, nil
}
