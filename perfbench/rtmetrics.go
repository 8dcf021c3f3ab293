package main

import (
	"runtime/metrics"
	"time"
)

// Runtime counters read from runtime/metrics around a timed phase.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

type rtSample struct {
	gcCPU, totalCPU       float64
	allocObjs, allocBytes uint64
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocObjs:  s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// rtDelta is what one timed phase cost the runtime.
type rtDelta struct {
	gcCPUFrac             float64
	allocObjs, allocBytes uint64
	peakHeap              uint64
}

// heapWatch samples the bytes held by live and unswept heap objects every
// heapEvery and keeps the maximum; it runs only in the untraced pass of a
// traced run, never in a timed run.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
	start      rtSample
}

const heapEvery = 5 * time.Millisecond

func startRuntimeWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), start: readRuntime()}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the phase's costs.
func (h *heapWatch) finish() rtDelta {
	end := readRuntime()
	close(h.stop)
	<-h.done
	d := rtDelta{
		allocObjs:  end.allocObjs - h.start.allocObjs,
		allocBytes: end.allocBytes - h.start.allocBytes,
		peakHeap:   h.peak,
	}
	if cpu := end.totalCPU - h.start.totalCPU; cpu > 0 {
		d.gcCPUFrac = (end.gcCPU - h.start.gcCPU) / cpu
	}
	return d
}
