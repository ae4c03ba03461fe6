// Package obs is the unified observability layer: a process-wide
// metrics registry (counters, gauges, fixed-bucket histograms, event
// streams), hierarchical trace spans over simulated and real time, and
// renderers (EXPLAIN ANALYZE profiles, Chrome-trace export) that turn
// a query execution into an explainable artifact instead of a black-box
// number.
//
// Design constraints, in priority order:
//
//  1. Near-zero cost when disabled. Every span entry point is nil-safe:
//     a nil *Span or nil *Tracer turns the whole tree of calls into
//     no-ops without a single allocation, so the hot morsel loop pays
//     one predictable-branch nil check.
//  2. Race-safe always. Counters are single atomics; histograms are
//     arrays of atomics; snapshots are consistent copies taken under a
//     read lock. Parallel scan workers hammer these from 16 goroutines.
//  3. Stable dotted names. Components register metrics under
//     "<component>.<operation>.<unit>" (objstore.get.count,
//     engine.scan.cache_hit, resilience.retries) so dashboards and
//     assertions survive refactors of the code behind them.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods
// are nil-safe so callers can hold pre-resolved counters without
// guarding on whether observability is installed.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by v (no-op on nil).
func (c *Counter) Add(v int64) {
	if c != nil {
		c.v.Add(v)
	}
}

// Get returns the current value (0 on nil).
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins atomic gauge.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Get returns the last recorded value (0 on nil).
func (g *Gauge) Get() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 samples (bytes,
// microseconds, rows). Bucket i counts samples <= Bounds[i]; one
// overflow bucket counts the rest. Observation is lock-free.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last = overflow
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a consistent copy of one histogram.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []int64 // len(Bounds)+1, last = overflow
	Count  int64
	Sum    int64
}

// Sink is anything that accepts named integer increments. *Registry
// and its Prefixed view satisfy it; it is the type of a counter field
// on code that must not know which registry it reports into (a
// resilience.Policy shared by several components). Every component
// counts into exactly one registry: its own until UseObs installs a
// shared one.
type Sink interface {
	Add(name string, v int64)
}

// Registry is the unified metrics registry. The zero of *Registry
// (nil) is a valid no-op sink: every method checks the receiver.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   map[string][]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   make(map[string][]string),
	}
}

// Counter returns (creating if needed) the named counter. Callers on
// hot paths should resolve once and hold the *Counter: Add on the
// result is a single atomic increment. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter — the convenience path for cold
// call sites. Registry itself satisfies Sink.
func (r *Registry) Add(name string, v int64) {
	r.Counter(name).Add(v)
}

// Get returns the named counter's current value (0 if absent).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counters[name].Get()
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Bounds
// are fixed at first registration; later calls ignore them.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Event appends one event to a named stream (e.g. every injected
// object-store fault goes to "objstore.faults"). Streams surface in
// Snapshot in canonical sorted order, so two same-seed chaos runs can
// be compared directly regardless of goroutine interleaving.
func (r *Registry) Event(stream, ev string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events[stream] = append(r.events[stream], ev)
	r.mu.Unlock()
}

// Snapshot is a consistent point-in-time copy of the registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
	// Events holds each stream sorted canonically (not arrival order):
	// the determinism contract chaos tests compare across runs.
	Events map[string][]string
}

// Snapshot copies every metric under the read lock. Counter values are
// atomic loads, so the copy is consistent even while writers run.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Events:     map[string][]string{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Get()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Get()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.buckets)),
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		snap.Histograms[name] = hs
	}
	for stream, evs := range r.events {
		cp := append([]string(nil), evs...)
		sort.Strings(cp)
		snap.Events[stream] = cp
	}
	return snap
}

// Events returns one stream from a fresh snapshot — the replacement
// for bespoke sorted-log accessors like the old objstore FaultLog.
func (r *Registry) Events(stream string) []string {
	return r.Snapshot().Events[stream]
}

// Prefixed returns a Sink that routes Add(name, v) to the registry
// under prefix+name — how code with short counter names ("retries")
// publishes dotted registry names ("resilience.retries").
func (r *Registry) Prefixed(prefix string) Sink {
	return prefixedSink{r: r, prefix: prefix}
}

type prefixedSink struct {
	r      *Registry
	prefix string
}

func (p prefixedSink) Add(name string, v int64) { p.r.Add(p.prefix+name, v) }
