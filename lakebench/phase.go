package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biglake/internal/obs"
	"biglake/internal/vector"
)

// phase records one measured stretch of a workload on one world:
// every completed statement, failures, benchmark spans, registry and
// runtime deltas, and (when traced) the engine's own span trees.
type phase struct {
	name    string
	traced  bool
	seconds float64
	passes  int // >0: run exactly this many passes instead of timing
	w       *world

	spans  *spanLog
	tracer *obs.Tracer
	heap   heapSampler
	reqSeq atomic.Int64

	mu           sync.Mutex
	samples      []sample
	attempted    int64
	failed       int64
	firstFailure string
	rowsReturned int64
	readBytes    int64
	readWall     time.Duration
	readSessions int
	lateness     []time.Duration
	backlogMax   int
	rungs        []rungResult
	optimizes    []optimizeRun
	passTimes    []time.Duration // closed loops: host time of each pass

	start      time.Time
	host       time.Duration
	regBefore  obs.Snapshot
	regAfter   obs.Snapshot
	memBefore  runtime.MemStats
	memAfter   runtime.MemStats
	eng        engineAgg
	logTailLen int
	// sqlAttempts counts SQL statements attempted, each of which must
	// land once in system.jobs.
	sqlAttempts int64
}

type rungResult struct {
	rate       int
	pointTail  float64
	pointN     int
	errors     int64
	backlogMax int
	lateP99    float64
	pass       bool
}

type optimizeRun struct {
	wall          time.Duration
	before, after int
}

func newPhase(name string, w *world, traced bool, seconds float64, passes int) *phase {
	ph := &phase{
		name: name, traced: traced, seconds: seconds, passes: passes, w: w,
		spans: &spanLog{on: traced},
		eng:   engineAgg{self: map[string]time.Duration{}},
	}
	ph.heap.arena = w.reg.Gauge("arena.bytes_in_use")
	if traced {
		ph.tracer = &obs.Tracer{}
		w.lh.Engine.Tracer = ph.tracer
	}
	return ph
}

// begin settles the heap (so set-up garbage and the oracle's tables do
// not count toward the peak) and takes the baseline snapshots.
func (ph *phase) begin() {
	runtime.GC()
	ph.regBefore = ph.w.reg.Snapshot()
	runtime.ReadMemStats(&ph.memBefore)
	ph.start = time.Now()
	ph.spans.t0 = ph.start
	ph.heap.t0 = ph.start
	ph.heap.sample()
}

func (ph *phase) end() {
	ph.host = time.Since(ph.start)
	runtime.ReadMemStats(&ph.memAfter)
	ph.regAfter = ph.w.reg.Snapshot()
	ph.logTailLen = ph.w.lh.Log.TailLen()
	if ph.tracer != nil {
		ph.eng.addTracer(ph.tracer)
		ph.w.lh.Engine.Tracer = nil
	}
}

// done reports whether the measured stretch is over; closed loops ask
// at pass boundaries only, so every pass runs whole.
func (ph *phase) done(pass int) bool {
	if ph.passes > 0 {
		return pass >= ph.passes
	}
	return time.Since(ph.start).Seconds() >= ph.seconds
}

// runPasses runs a closed loop's identical passes until the phase is
// done, timing each one.
func (ph *phase) runPasses(pass func()) {
	for i := 0; !ph.done(i); i++ {
		t0 := time.Now()
		pass()
		ph.passTimes = append(ph.passTimes, time.Since(t0))
	}
}

func (ph *phase) req() string { return fmt.Sprintf("%s-%d", ph.name, ph.reqSeq.Add(1)) }

// record lands one finished operation and reports whether it
// succeeded. A non-empty wrong describes a wrong answer; both it and
// err count as failed.
func (ph *phase) record(s sample, err error, wrong string) bool {
	ph.heap.sample()
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	if isSQL(s.kind) {
		ph.sqlAttempts++
	}
	if err != nil || wrong != "" {
		ph.failed++
		if ph.firstFailure == "" {
			if err != nil {
				ph.firstFailure = fmt.Sprintf("%s: %v", s.kind, err)
			} else {
				ph.firstFailure = fmt.Sprintf("%s: wrong answer: %s", s.kind, wrong)
			}
			fmt.Fprintf(os.Stderr, "lakebench: %s failure: %s\n", ph.name, ph.firstFailure)
		}
		return false
	}
	ph.samples = append(ph.samples, s)
	return true
}

// coreStep runs one statement through core.Lakehouse.Query and checks
// its answer.
func (ph *phase) coreStep(q query) {
	req := ph.req()
	sp := ph.spans.start("core.query", req, -1)
	t0 := time.Now()
	res, err := runQuery(ph.w, q.sql)
	wall := time.Since(t0)
	ph.spans.end(sp)
	s := sample{kind: q.kind, wall: wall}
	wrong := ""
	if err == nil {
		s.sim = res.Stats.SimElapsed
		wrong = check(res.Batch, q.want)
		ph.addRows(res.Batch)
	}
	ph.record(s, err, wrong)
}

func (ph *phase) addRows(b *vector.Batch) {
	if b == nil {
		return
	}
	ph.mu.Lock()
	ph.rowsReturned += int64(b.N)
	ph.mu.Unlock()
}

// warmUp runs statements once on a fresh world, outside any phase; a
// wrong answer there fails the set-up.
func warmUp(w *world, qs []query) error {
	for _, q := range qs {
		res, err := runQuery(w, q.sql)
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", q.sql, err)
		}
		if d := check(res.Batch, q.want); d != "" {
			return fmt.Errorf("warm-up %q: wrong answer: %s", q.sql, d)
		}
	}
	return nil
}

func counterDelta(ph *phase, name string) float64 {
	return float64(ph.regAfter.Counters[name] - ph.regBefore.Counters[name])
}
