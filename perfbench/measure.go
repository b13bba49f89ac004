package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile of ds in
// milliseconds (0 for no samples).
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p/100*float64(len(s))+0.5) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k]) / 1e6
}

func median(ds []time.Duration) float64 { return percentile(ds, 50) }

// heapPeak tracks the highest live heap seen at cycle boundaries. Each
// sample follows a forced collection, so it is the heap the maintained
// state really holds there. The collector's own last mark, read without a
// collection, lands at a random point inside a cycle: over a run its
// maximum followed the one or two marks that caught a cycle's transient
// data, and spread 18 % over five seeds.
type heapPeak struct {
	sample [1]metrics.Sample
	peak   uint64
}

// observe collects and records the live heap.
func (h *heapPeak) observe() {
	runtime.GC()
	if h.sample[0].Name == "" {
		h.sample[0].Name = "/gc/heap/live:bytes"
	}
	metrics.Read(h.sample[:])
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	var h heapPeak
	h.observe()
	return h.mb()
}

// querySample is one timed query: its class (index into the query mix) and
// its latency from the scheduled send time.
type querySample struct {
	class int
	lat   time.Duration
}

// span is one recorded interval around a call into a layer. Spans of one
// cycle or query share Trace; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr *tracer
	sp span
}

// begin opens a span named name under parent (nil for a root) in trace.
func (t *tracer) begin(name, trace string, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &openSpan{tr: t, sp: span{ID: id, Trace: trace, Name: name}}
	if parent != nil {
		o.sp.Parent = parent.sp.ID
	}
	o.sp.Start = int64(time.Since(t.t0))
	return o
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.sp.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.sp)
	o.tr.mu.Unlock()
	return time.Duration(o.sp.End - o.sp.Start)
}

// durations returns the lengths of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memDelta measures allocation around traced writer cycles. It reads the
// MemStats counters through runtime/metrics, which does not stop the world.
type memDelta struct {
	s                   [3]metrics.Sample
	bytes, objects, gcs uint64
	cycles              int
}

func (m *memDelta) read() (bytes, objects, gcs uint64) {
	if m.s[0].Name == "" {
		m.s[0].Name = "/gc/heap/allocs:bytes"
		m.s[1].Name = "/gc/heap/allocs:objects"
		m.s[2].Name = "/gc/cycles/total:gc-cycles"
	}
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64()
}

func (m *memDelta) start() {
	b, o, g := m.read()
	m.bytes -= b
	m.objects -= o
	m.gcs -= g
}

func (m *memDelta) stop() {
	b, o, g := m.read()
	m.bytes += b
	m.objects += o
	m.gcs += g
	m.cycles++
}

// report stores the per-cycle averages as exec.* layer metrics.
func (m *memDelta) report(rep *report) {
	n := float64(max(m.cycles, 1))
	rep.set("exec.alloc_mb_per_cycle", float64(m.bytes)/(1<<20)/n)
	rep.set("exec.mallocs_per_cycle", float64(m.objects)/n)
	rep.set("exec.gc_per_cycle", float64(m.gcs)/n)
}

// absorb appends another tracer's spans, prefixing their trace identifiers
// and shifting their times and identifiers into this tracer's.
func (t *tracer) absorb(o *tracer, prefix string) {
	if t == nil {
		return
	}
	shift := int64(o.t0.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	for _, s := range o.spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Trace = prefix + s.Trace
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
		t.next = max(t.next, s.ID)
	}
}
