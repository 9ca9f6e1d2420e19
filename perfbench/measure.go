package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sliceLen is the sub-window over which latency percentiles and the heap
// peak are taken; a window reports the median over its slices, so one
// disturbed slice (a neighbour's burst, a GC cycle) does not move the
// run's figure.
const sliceLen = 500 * time.Millisecond

// heapTick is how often the heap is sampled for peak_heap_mb.
const heapTick = 100 * time.Millisecond

// reservoirCap is the per-flow latency sample budget of one slice. A
// slice with more operations keeps a uniform random sample (Algorithm
// R), which leaves hundreds of samples above the 99th percentile.
const reservoirCap = 1 << 16

// reservoir is one flow's latency samples for one phase. It is owned by
// the flow's goroutine while the phase runs and read after it ends.
type reservoir struct {
	// mu orders the owning flow's add against the meter's read: a flow
	// can still finish an operation into a phase that has just ended.
	// It is uncontended otherwise.
	mu   sync.Mutex
	ns   []int32
	seen int64
	rng  uint64
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{ns: make([]int32, 0, reservoirCap), rng: seed | 1}
}

func (r *reservoir) add(d time.Duration) {
	v := int32(math.MaxInt32)
	if d < math.MaxInt32 {
		v = int32(d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if len(r.ns) < cap(r.ns) {
		r.ns = append(r.ns, v)
		return
	}
	// xorshift64: cheap and deterministic per flow.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(r.seen); j < uint64(len(r.ns)) {
		r.ns[j] = v
	}
}

// phase is what the load's goroutines record into while one measured
// window runs. Swapping the load's phase pointer starts a new window
// without stopping the traffic.
type phase struct {
	lat []*reservoir
	// tr is nil in untraced phases; every span call is then a no-op.
	tr *tracer
}

func newPhase(flows int, seed int64, tr *tracer) *phase {
	p := &phase{tr: tr}
	for i := 0; i < flows; i++ {
		p.lat = append(p.lat, newReservoir(uint64(seed)*1000003+uint64(i)))
	}
	return p
}

// record adds one operation's latency for flow.
func (p *phase) record(flow int, d time.Duration) { p.lat[flow].add(d) }

// load is the shared state between a running workload's goroutines and
// the meter: cumulative counters plus the current phase.
type load struct {
	ops    atomic.Int64 // completed and verified operations
	bytes  atomic.Int64 // verified application payload bytes
	failed atomic.Int64 // refused, timed-out or errored operations
	ph     atomic.Pointer[phase]
}

// phase returns the phase to record into; never nil once the load runs.
func (l *load) phase() *phase { return l.ph.Load() }

// window is one measured phase's result.
type window struct {
	Seconds     float64 `json:"seconds"`
	Slices      int     `json:"slices"`
	Ops         int64   `json:"ops"`
	Bytes       int64   `json:"bytes"`
	Failed      int64   `json:"failed"`
	OpsPerS     float64 `json:"ops_per_s"`
	GoodputMBps float64 `json:"goodput_mbps"`
	// LatP50us and LatP99us are medians over slices of each slice's
	// percentile.
	LatP50us     float64 `json:"latency_p50_us"`
	LatP99us     float64 `json:"latency_p99_us"`
	LatSamples   int     `json:"latency_samples"`
	LatSeen      int64   `json:"latency_ops"`
	CPUusPerOp   float64 `json:"cpu_us_per_op"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	// PeakHeapMB is the median over slices of the slice's highest
	// HeapInuse sample; HeapMaxMB the highest sample of the window.
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	HeapMaxMB    float64 `json:"heap_max_mb"`
	GCCPUFrac    float64 `json:"gc_cpu_fraction"`
	GCCyclesPerS float64 `json:"gc_cycles_per_s"`
	// SliceOpsPerS and SliceP99us are the per-slice values the medians
	// above are taken from.
	SliceOpsPerS []float64 `json:"slice_ops_per_s"`
	SliceP99us   []float64 `json:"slice_latency_p99_us"`
}

// rtSample is one reading of the process counters a slice needs.
type rtSample struct {
	at          time.Time
	ops, bytes  int64
	failed      int64
	cpu         time.Duration
	allocBytes  uint64
	allocObjs   uint64
	gcCPU       float64
	totalCPU    float64
	gcCycles    uint64
	heapInUseMB float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

// sampler reads runtime/metrics without stopping the world (unlike
// runtime.ReadMemStats), so sampling does not perturb the phase.
type sampler struct {
	buf []metrics.Sample
}

func newSampler() *sampler {
	s := &sampler{buf: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		s.buf[i].Name = n
	}
	return s
}

// heapInUseMB is runtime.MemStats.HeapInuse (object bytes plus the
// unused part of in-use spans), in MiB.
func (s *sampler) heapInUseMB() float64 {
	metrics.Read(s.buf[5:7])
	return float64(s.buf[5].Value.Uint64()+s.buf[6].Value.Uint64()) / (1 << 20)
}

func (s *sampler) read(l *load) rtSample {
	metrics.Read(s.buf)
	return rtSample{
		at:          time.Now(),
		ops:         l.ops.Load(),
		bytes:       l.bytes.Load(),
		failed:      l.failed.Load(),
		cpu:         processCPU(),
		allocBytes:  s.buf[0].Value.Uint64(),
		allocObjs:   s.buf[1].Value.Uint64(),
		gcCPU:       s.buf[2].Value.Float64(),
		totalCPU:    s.buf[3].Value.Float64(),
		gcCycles:    s.buf[4].Value.Uint64(),
		heapInUseMB: float64(s.buf[5].Value.Uint64()+s.buf[6].Value.Uint64()) / (1 << 20),
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one window of length d over a running load. It samples
// the heap every heapTick and closes a slice every sliceLen. Rates and
// per-op costs are totals over the window; latency percentiles and the
// heap peak are medians over slices of each slice's figure, so that one
// disturbed slice does not set them. Two phases (traced when tr is
// non-nil) alternate as the load's recording target, one per slice.
func measure(l *load, flows int, seed int64, d time.Duration, tr *tracer) window {
	cur, next := newPhase(flows, seed, tr), newPhase(flows, seed+1, tr)
	runtime.GC()
	l.ph.Store(cur)
	s := newSampler()
	start := s.read(l)
	prev := start
	var opsRate, p50, p99, heap []float64
	var w window
	sliceHeap := start.heapInUseMB
	tick := time.NewTicker(heapTick)
	defer tick.Stop()
	deadline := start.at.Add(d)
	nextSlice := start.at.Add(sliceLen)
	for {
		now := <-tick.C
		sliceHeap = max(sliceHeap, s.heapInUseMB())
		if now.Before(nextSlice) && now.Before(deadline) {
			continue
		}
		next.reset()
		l.ph.Store(next)
		snap := s.read(l)
		dt := snap.at.Sub(prev.at).Seconds()
		ops := snap.ops - prev.ops
		opsRate = append(opsRate, float64(ops)/dt)
		if lat := cur.latencies(&w); len(lat) > 0 {
			p50 = append(p50, float64(quantileSorted32(lat, 0.50))/1e3)
			p99 = append(p99, float64(quantileSorted32(lat, 0.99))/1e3)
		}
		heap = append(heap, sliceHeap)
		w.HeapMaxMB = max(w.HeapMaxMB, sliceHeap)
		sliceHeap = 0
		prev = snap
		cur, next = next, cur
		nextSlice = snap.at.Add(sliceLen)
		if !snap.at.Before(deadline) {
			break
		}
	}
	// Operations completing after the window record into a throwaway
	// phase.
	l.ph.Store(newPhase(flows, seed, nil))
	end := prev
	w.Seconds = end.at.Sub(start.at).Seconds()
	w.Slices = len(opsRate)
	w.Ops = end.ops - start.ops
	w.Bytes = end.bytes - start.bytes
	w.Failed = end.failed - start.failed
	w.SliceOpsPerS, w.SliceP99us = opsRate, p99
	w.OpsPerS = float64(w.Ops) / w.Seconds
	w.GoodputMBps = float64(w.Bytes) / w.Seconds / 1e6
	if w.Ops > 0 {
		w.CPUusPerOp = float64(end.cpu-start.cpu) / 1e3 / float64(w.Ops)
		w.AllocKBPerOp = float64(end.allocBytes-start.allocBytes) / 1024 / float64(w.Ops)
		w.AllocsPerOp = float64(end.allocObjs-start.allocObjs) / float64(w.Ops)
	}
	w.LatP50us = median(p50)
	w.LatP99us = median(p99)
	w.PeakHeapMB = median(heap)
	w.GCCyclesPerS = float64(end.gcCycles-start.gcCycles) / w.Seconds
	if cpu := end.totalCPU - start.totalCPU; cpu > 0 {
		w.GCCPUFrac = (end.gcCPU - start.gcCPU) / cpu
	}
	return w
}

// latencies returns the phase's samples, sorted, and adds their counts
// to w.
func (p *phase) latencies(w *window) []int32 {
	var all []int32
	for _, r := range p.lat {
		r.mu.Lock()
		all = append(all, r.ns...)
		w.LatSamples += len(r.ns)
		w.LatSeen += r.seen
		r.mu.Unlock()
	}
	slices.Sort(all)
	return all
}

// reset empties the phase's reservoirs for reuse.
func (p *phase) reset() {
	for _, r := range p.lat {
		r.mu.Lock()
		r.ns, r.seen = r.ns[:0], 0
		r.mu.Unlock()
	}
}

func quantileSorted32(s []int32, q float64) int32 {
	if len(s) == 0 {
		return 0
	}
	return s[int(q*float64(len(s)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
