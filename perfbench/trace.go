package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one call the benchmark made into a layer's public function (or
// one whole op): its name, its interval in nanoseconds since the tracer's
// epoch, the span that caused it (-1 for none), and the op it served (-1
// for work that belongs to no single op, such as a kernel replay batch).
type Span struct {
	Name       string
	Op         int
	Parent     int
	Start, End int64
}

// Tracer keeps spans in memory. One goroutine owns a Tracer; concurrent
// clients each get their own and the results are merged by name. A nil
// *Tracer records nothing, which is how the untimed and untraced paths
// share code with the traced one at the cost of one nil check per call.
type Tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer(epoch time.Time, capHint int) *Tracer {
	return &Tracer{epoch: epoch, spans: make([]Span, 0, capHint)}
}

// Begin opens a span and returns its id for End and for children's parent.
func (t *Tracer) Begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover (overlapping children
// are counted once).
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered measures the union of the kids' intervals clipped to s.
func covered(s Span, spans []Span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime is the summed self time of every span with one name.
type layerTime struct {
	Calls int
	Self  time.Duration
}

// perCall is the mean self time of one call, in the given unit.
func (l layerTime) perCall(unit time.Duration) float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.Self) / float64(l.Calls) / float64(unit)
}

// aggregate sums self time by span name over every tracer.
func aggregate(tracers ...*Tracer) map[string]layerTime {
	out := make(map[string]layerTime)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			l := out[s.Name]
			l.Calls++
			l.Self += time.Duration(self[i])
			out[s.Name] = l
		}
	}
	return out
}

// writeSpans writes every span as a gzip-compressed tab-separated line:
// track (the tracer's index), span id, parent id, op id, name, start and
// end in nanoseconds.
func writeSpans(path string, tracers ...*Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "track\tid\tparent\top\tname\tstart_ns\tend_ns")
	for track, t := range tracers {
		if t == nil {
			continue
		}
		for id, s := range t.spans {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", track, id, s.Parent, s.Op, s.Name, s.Start, s.End)
		}
	}
	err = bw.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
