package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"biglake/internal/obs"
)

// span is one benchmark-side span around a call into a layer's public
// function. Spans of one statement share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; with on unset every call is a no-op,
// so the untraced phase pays nothing for them.
type spanLog struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) start(name, req string, parent int) int {
	if !l.on {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// meanMS is the mean duration in ms of the ended spans called name.
func (l *spanLog) meanMS(name string) float64 {
	var sum time.Duration
	n := 0
	for _, s := range l.spans {
		if s.Name == name && s.End >= 0 {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// sample is one completed statement (or Read API session, or write).
type sample struct {
	kind string
	wall time.Duration // host time; from the due time in the open loop
	sim  time.Duration
	rate int // offered rate of the open-loop rung it ran in (0: closed loop)
}

// Statement kinds.
const (
	kindStar     = "star"
	kindDPP      = "star-dpp"
	kindTPCDS    = "tpcds"
	kindRead     = "read-api"
	kindPoint    = "point"
	kindOpsPoint = "ops-point"
	kindGroup    = "group-by"
	kindInsert   = "insert"
	kindAppend   = "write-api"
)

func isPoint(k string) bool { return k == kindPoint || k == kindOpsPoint }
func isWrite(k string) bool { return k == kindInsert || k == kindAppend }

// isSQL reports whether a sample ran as one SQL statement, and so
// should land exactly once in system.jobs.
func isSQL(k string) bool { return !strings.HasPrefix(k, kindRead) && k != kindAppend }

// engineAgg sums the engine's own span trees (recorded only in the
// traced phase) into per-operator self times.
type engineAgg struct {
	traces         int
	parse, execute time.Duration
	parseN, hits   int
	executeN       int
	self           map[string]time.Duration
}

var operatorNames = map[string]bool{"filter": true, "join": true, "aggregate": true, "order_by": true, "project": true}

func operatorOf(name string) (string, bool) {
	if strings.HasPrefix(name, "scan ") {
		return "scan", true
	}
	return name, operatorNames[name]
}

// addTrace folds one finished engine trace in. An operator's self time
// is its wall time minus that of its child operator spans; the reads,
// footers and metadata calls under a scan count as the scan's own.
func (a *engineAgg) addTrace(t *obs.Trace) {
	a.traces++
	t.Root().Walk(func(s *obs.Span) {
		name := s.Name()
		switch name {
		case "parse":
			a.parse += s.WallDuration()
			a.parseN++
			if v, _ := s.StrAttr("cache"); v == "hit" {
				a.hits++
			}
			return
		case "execute":
			a.execute += s.WallDuration()
			a.executeN++
			return
		}
		op, ok := operatorOf(name)
		if !ok {
			return
		}
		self := s.WallDuration()
		for _, c := range s.Children() {
			if _, isOp := operatorOf(c.Name()); isOp {
				self -= c.WallDuration()
			}
		}
		if self > 0 {
			a.self[op] += self
		}
	})
}

// addTracer folds in every finished trace the tracer retained. An
// unfinished one (cut by an error path) is skipped.
func (a *engineAgg) addTracer(tr *obs.Tracer) {
	for _, t := range tr.Traces() {
		if t.Root().Ended() {
			a.addTrace(t)
		}
	}
}

// heapSampler reads the live heap and arena gauge between statements
// on the calling goroutine; it starts no goroutine of its own.
type heapSampler struct {
	arena     *obs.Gauge
	t0        time.Time
	mu        sync.Mutex
	live      []heapPoint
	arenaPeak int64
}

type heapPoint struct {
	at   time.Duration
	live uint64
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	var a int64
	if h.arena != nil {
		a = h.arena.Get()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.live = append(h.live, heapPoint{time.Since(h.t0), s[0].Value.Uint64()})
	}
	h.arenaPeak = max(h.arenaPeak, a)
}

// peakMB is the peak live heap, taken as the median over one-second
// windows of each window's highest sample: one unlucky GC cycle that
// caught two large queries in flight moves it no more than any other
// window.
func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	peaks := map[int]uint64{}
	for _, p := range h.live {
		w := int(p.at / time.Second)
		peaks[w] = max(peaks[w], p.live)
	}
	var xs []float64
	for _, v := range peaks {
		xs = append(xs, float64(v)/(1<<20))
	}
	return median(xs)
}

// --- statistics ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tail is the highest percentile with at least ten samples beyond it:
// the eleventh-largest value. It reports the percentile it read.
func tail(sorted []float64) (v, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- host fingerprint ---

type fingerprint struct {
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	GitRev        string `json:"git_rev"`
	SourceSHA256  string `json:"source_sha256"`
	EngineOptions any    `json:"engine_options"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod under root,
// so results from a checkout without git history still name the code
// they measured.
func sourceDigest(root string) string {
	if root == "" {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "config.json" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hostFingerprint(rev, root string, engineOpts any) fingerprint {
	return fingerprint{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		GitRev:        rev,
		SourceSHA256:  sourceDigest(root),
		EngineOptions: engineOpts,
	}
}
