// Command lakebench is the repository's benchmark: one command that
// builds a seeded lakehouse world, drives one workload through the
// public entry points (core.Lakehouse.Query, the serve session
// lifecycle, and the Storage Read/Write APIs), checks every answer
// against the internal/oracle reference executor, and prints every
// end-to-end metric by name and unit. With -trace 1 it measures the
// same seed twice, untraced then traced, and prints the per-layer
// metrics and the tracing overhead.
//
// Run it from the repository root through lakebench/run.sh, which
// builds it from source:
//
//	bash lakebench/run.sh --workload tenant-mix --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is nonzero on
// any error or wrong answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root, for the source digest
	out      string // directory for span files ("" = none)
	rev      string
	tiny     bool // shrink every world (the benchmark's own tests)
	passes   int  // closed loops: run exactly this many passes
	// plantWrong corrupts one reference answer, to prove a wrong
	// answer fails the run.
	plantWrong bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// endToEnd holds every end-to-end value of the untraced phase,
	// including those BENCHMARK.json does not gate.
	endToEnd e2eValues
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: star-warm, lake-scan or tenant-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds measured per phase")
	flag.IntVar(&trace, "trace", 0, "1: add a traced phase and report per-layer metrics")
	flag.StringVar(&o.root, "root", "", "repository root (for the source digest)")
	flag.StringVar(&o.out, "out", "", "directory for span files")
	flag.StringVar(&o.rev, "rev", "none", "git revision of the sources")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(name string, c config) (driver, int64, error) {
	switch name {
	case "star-warm":
		return &starWarm{cfg: c, s: c.Workloads.StarWarm}, c.Workloads.StarWarm.ScanCacheBytes, nil
	case "lake-scan":
		return &lakeScan{cfg: c, l: c.Workloads.LakeScan}, c.Workloads.LakeScan.ScanCacheBytes, nil
	case "tenant-mix":
		return &tenantMix{cfg: c, t: c.Workloads.TenantMix}, c.Workloads.TenantMix.ScanCacheBytes, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want star-warm, lake-scan or tenant-mix)", name)
}

// run measures one workload and returns the result line. Text detail
// goes to out.
func run(o options, out io.Writer) (result, error) {
	cfg, err := loadConfig()
	if err != nil {
		return result{}, err
	}
	if o.tiny {
		cfg.tiny()
	}
	wl, cacheBytes, err := newWorkload(o.workload, cfg)
	if err != nil {
		return result{}, err
	}
	fp := hostFingerprint(o.rev, o.root, cfg.engineOptions(cacheBytes))
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(out, "lakebench host %s\n", fpJSON)
	fmt.Fprintf(out, "lakebench run workload=%s seed=%d seconds=%g trace=%t held_out_seed=%d\n",
		o.workload, o.seed, o.seconds, o.trace, cfg.HeldOutSeed)

	if err := wl.prepare(o.seed); err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}

	// Set-up is timed several times and reported as the median; the
	// last world built is the one measured.
	repeats := cfg.SetupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []float64
	var w *world
	for i := 0; i < repeats; i++ {
		w = nil // let the previous world go before building the next
		t0 := time.Now()
		if w, err = wl.build(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)
	fmt.Fprintf(out, "lakebench setup_s %.4f s (median of %d builds: %s)\n", setupS, len(setups), fmtList(setups))

	// A traced run measures two phases in the time of one.
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	if o.plantWrong {
		plantWrong(wl)
	}
	ph := newPhase("untraced", w, false, seconds, o.passes)
	ph.begin()
	if err := wl.measure(ph); err != nil {
		return result{}, err
	}
	ph.end()
	untraced := endToEnd(ph, setupS, cfg)
	printEndToEnd(out, ph, untraced, cfg)
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metricValue{}, endToEnd: untraced}

	if !o.trace {
		for _, m := range endToEndMetrics {
			if m.listed {
				res.Metrics[m.name] = metricValue{untraced[m.name], m.unit}
			}
		}
		return res, nil
	}

	// The traced phase runs the same seed on a fresh world, so the two
	// phases differ only in tracing.
	w, ph = nil, nil
	if w, err = wl.build(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tph := newPhase("traced", w, true, seconds, o.passes)
	tph.begin()
	if err := wl.measure(tph); err != nil {
		return result{}, err
	}
	tph.end()
	traced := endToEnd(tph, setupS, cfg)
	printEndToEnd(out, tph, traced, cfg)
	printOverhead(out, untraced, traced)
	layers := perLayer(tph)
	fmt.Fprintf(out, "lakebench per-layer phase=traced statements=%d engine_traces=%d\n", len(tph.samples), tph.eng.traces)
	for _, m := range perLayerMetrics {
		fmt.Fprintf(out, "  %-40s %14.6g %-6s -> %s\n", m.name, layers[m.name], m.unit, cfg.LayerMap[m.name])
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	if err := writeSpans(o, fp, tph); err != nil {
		return result{}, err
	}
	res.Correct = res.Correct && tph.failed == 0
	res.Attempted += tph.attempted
	res.Failed += tph.failed
	return res, nil
}

// plantWrong corrupts one row of every reference answer a workload
// holds, after set-up, so the measured phase sees wrong answers.
func plantWrong(wl driver) {
	var qs []query
	switch v := wl.(type) {
	case *starWarm:
		qs = v.queries
	case *lakeScan:
		qs = v.queries
	case *tenantMix:
		qs = append(append(qs, v.stars...), v.groups...)
	}
	for _, q := range qs {
		if len(q.want) > 0 {
			q.want[0] += "|planted"
		}
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// metricDef names one metric and its unit. listed marks the end-to-end
// metrics BENCHMARK.json gates (those every workload reports, never 0).
type metricDef struct {
	name, unit string
	listed     bool
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", true},
	{"qps", "1/s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_tail_ms", "ms", true},
	{"heap_peak_mb", "MB", true},
	{"point_p50_ms", "ms", false},
	{"point_tail_ms", "ms", false},
	{"slo_qps", "1/s", false},
	{"sim_ms_per_query", "ms", false},
	{"write_sim_p50_ms", "ms", false},
	{"read_mb_per_s", "MB/s", false},
	{"error_rate", "ratio", false},
}

type e2eValues map[string]float64

// endToEnd computes every end-to-end metric of a phase. qps and the
// latencies count SQL statements (qps in a closed loop is per median
// pass); Read API sessions and Write API
// commits take host time but are reported through read_mb_per_s and
// write_sim_p50_ms. In the open loop the latencies read only the rungs
// up to the reference rate. Latencies are host wall time per statement (from
// the due time in the open loop); sim_* metrics are simulated
// remote-I/O time and are never summed with wall time.
func endToEnd(ph *phase, setupS float64, cfg config) e2eValues {
	v := e2eValues{"setup_s": setupS}
	var all, points, writes []time.Duration
	var sim time.Duration
	var writeSim []time.Duration
	var completed int
	for _, s := range ph.samples {
		if isSQL(s.kind) {
			completed++
		}
		if s.rate > cfg.Workloads.TenantMix.ReferenceRate {
			continue
		}
		if isSQL(s.kind) {
			all = append(all, s.wall)
			sim += s.sim
		}
		if isPoint(s.kind) {
			points = append(points, s.wall)
		}
		if isWrite(s.kind) {
			writes = append(writes, s.wall)
			writeSim = append(writeSim, s.sim)
		}
	}
	lat := sortedMS(all)
	v["qps"] = ratio(float64(completed), ph.host.Seconds())
	if n := len(ph.passTimes); n > 0 {
		// Closed loops repeat one pass: a pass's statements over the
		// median pass time, so a stretch of host noise moves it less.
		perPass := float64(completed) / float64(n)
		v["qps"] = ratio(perPass, median(sortedMS(ph.passTimes))/1000)
	}
	v["completed"] = float64(completed)
	v["latency_p50_ms"] = quantile(lat, 0.5)
	v["latency_tail_ms"], v["latency_tail_pct"] = tail(lat)
	v["n"] = float64(len(all))
	pts := sortedMS(points)
	v["point_p50_ms"] = quantile(pts, 0.5)
	v["point_tail_ms"], v["point_tail_pct"] = tail(pts)
	v["point_n"] = float64(len(pts))
	v["sim_ms_per_query"] = ratio(ms(sim), float64(len(all)))
	v["write_sim_p50_ms"] = quantile(sortedMS(writeSim), 0.5)
	v["write_n"] = float64(len(writes))
	v["read_mb_per_s"] = ratio(float64(ph.readBytes)/1e6, ph.readWall.Seconds())
	v["error_rate"] = ratio(float64(ph.failed), float64(ph.attempted))
	v["heap_peak_mb"] = ph.heap.peakMB()
	for _, r := range ph.rungs {
		if r.pass && float64(r.rate) > v["slo_qps"] {
			v["slo_qps"] = float64(r.rate)
		}
	}
	return v
}

func printEndToEnd(out io.Writer, ph *phase, v e2eValues, cfg config) {
	fmt.Fprintf(out, "lakebench end-to-end phase=%s statements=%d attempted=%d failed=%d host_s=%.3f\n",
		ph.name, len(ph.samples), ph.attempted, ph.failed, ph.host.Seconds())
	note := map[string]string{
		"qps":              fmt.Sprintf("n=%.0f", v["completed"]),
		"latency_p50_ms":   fmt.Sprintf("n=%.0f", v["n"]),
		"latency_tail_ms":  fmt.Sprintf("p%.2f, n=%.0f, 10 beyond", v["latency_tail_pct"], v["n"]),
		"point_p50_ms":     fmt.Sprintf("n=%.0f", v["point_n"]),
		"point_tail_ms":    fmt.Sprintf("p%.2f, n=%.0f", v["point_tail_pct"], v["point_n"]),
		"write_sim_p50_ms": fmt.Sprintf("n=%.0f", v["write_n"]),
		"read_mb_per_s":    fmt.Sprintf("sessions=%d", ph.readSessions),
	}
	for _, m := range endToEndMetrics {
		fmt.Fprintf(out, "  %-18s %14.6g %-6s %s\n", m.name, v[m.name], m.unit, note[m.name])
	}
	byKind := map[string][]time.Duration{}
	for _, s := range ph.samples {
		byKind[s.kind] = append(byKind[s.kind], s.wall)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := sortedMS(byKind[k])
		fmt.Fprintf(out, "  kind %-16s n=%-6d p50_ms=%.3f max_ms=%.3f\n", k, len(l), quantile(l, 0.5), l[len(l)-1])
	}
	fmt.Fprintf(out, "  tail made of: %s\n", tailKinds(ph, v["latency_tail_ms"], cfg.Workloads.TenantMix.ReferenceRate))
	for _, r := range ph.rungs {
		fmt.Fprintf(out, "  rung rate=%d/s point_tail_ms=%.3f (n=%d) errors=%d backlog_max=%d late_p99_ms=%.3f pass=%t\n",
			r.rate, r.pointTail, r.pointN, r.errors, r.backlogMax, r.lateP99, r.pass)
	}
}

// tailKinds counts, by kind, the statements at or beyond the tail.
func tailKinds(ph *phase, tailMS float64, refRate int) string {
	counts := map[string]int{}
	for _, s := range ph.samples {
		if isSQL(s.kind) && s.rate <= refRate && ms(s.wall) >= tailMS {
			counts[s.kind]++
		}
	}
	var parts []string
	for k, n := range counts {
		parts = append(parts, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// printOverhead reports, per end-to-end metric, how the traced phase
// differs from the untraced one on the same seed.
func printOverhead(out io.Writer, untraced, traced e2eValues) {
	fmt.Fprintln(out, "lakebench tracing overhead (traced vs untraced, same seed)")
	for _, m := range endToEndMetrics {
		if m.name == "setup_s" {
			continue
		}
		u, t := untraced[m.name], traced[m.name]
		fmt.Fprintf(out, "  %-18s untraced=%-12.6g traced=%-12.6g diff=%+.2f%%\n", m.name, u, t, 100*ratio(t-u, u))
	}
}

var perLayerMetrics = []metricDef{
	{name: "engine.parse_ms", unit: "ms"},
	{name: "engine.stmt_cache_hit_ratio", unit: "ratio"},
	{name: "engine.execute_ms", unit: "ms"},
	{name: "engine.scan_self_ms", unit: "ms"},
	{name: "engine.filter_self_ms", unit: "ms"},
	{name: "engine.join_self_ms", unit: "ms"},
	{name: "engine.aggregate_self_ms", unit: "ms"},
	{name: "engine.order_by_self_ms", unit: "ms"},
	{name: "engine.files_scanned_per_query", unit: "count"},
	{name: "engine.prune_ratio", unit: "ratio"},
	{name: "engine.footer_reads_per_query", unit: "count"},
	{name: "engine.rows_scanned_per_row_returned", unit: "ratio"},
	{name: "engine.scan_cache_hit_ratio", unit: "ratio"},
	{name: "engine.sim_ms_per_query", unit: "ms"},
	{name: "bigmeta.refresh_ms", unit: "ms"},
	{name: "bigmeta.commits_per_write", unit: "count"},
	{name: "bigmeta.log_tail_len", unit: "count"},
	{name: "objstore.gets_per_query", unit: "count"},
	{name: "objstore.get_mb_per_query", unit: "MB"},
	{name: "objstore.lists_per_query", unit: "count"},
	{name: "objstore.heads_per_query", unit: "count"},
	{name: "objstore.puts_per_write", unit: "count"},
	{name: "storageapi.create_read_session_ms", unit: "ms"},
	{name: "storageapi.read_rows_ms", unit: "ms"},
	{name: "storageapi.read_mb_per_session", unit: "MB"},
	{name: "storageapi.append_rows_ms", unit: "ms"},
	{name: "storageapi.batch_commit_ms", unit: "ms"},
	{name: "blmt.insert_ms", unit: "ms"},
	{name: "blmt.optimize_ms", unit: "ms"},
	{name: "blmt.files_before_optimize", unit: "count"},
	{name: "blmt.files_after_optimize", unit: "count"},
	{name: "serve.parse_ms", unit: "ms"},
	{name: "serve.prepare_ms", unit: "ms"},
	{name: "serve.execute_ms", unit: "ms"},
	{name: "serve.fetch_ms", unit: "ms"},
	{name: "serve.close_ms", unit: "ms"},
	{name: "serve.queue_wait_ms", unit: "ms"},
	{name: "serve.rejected_ratio", unit: "ratio"},
	{name: "systables.jobs_recorded_per_query", unit: "ratio"},
	{name: "systables.history_snapshots_per_kquery", unit: "count"},
	{name: "runtime.allocs_per_query", unit: "count"},
	{name: "runtime.alloc_kb_per_query", unit: "KB"},
	{name: "runtime.gc_cycles_per_kquery", unit: "count"},
	{name: "runtime.gc_pause_ms_per_kquery", unit: "ms"},
	{name: "arena.bytes_in_use_peak_mb", unit: "MB"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "loadgen.backlog_max", unit: "count"},
}

// perLayer computes the per-layer metrics of a traced phase from the
// benchmark's spans, the engine's span trees, registry deltas and
// runtime statistics.
func perLayer(ph *phase) map[string]float64 {
	v := map[string]float64{}
	ops := float64(len(ph.samples))
	var sqlN, writes float64
	var sim time.Duration
	for _, s := range ph.samples {
		if isWrite(s.kind) {
			writes++
		}
		if isSQL(s.kind) {
			sqlN++
			sim += s.sim
		}
	}
	d := func(name string) float64 { return counterDelta(ph, name) }
	e := &ph.eng
	engQueries := d("engine.queries")

	v["engine.parse_ms"] = ratio(ms(e.parse), float64(e.parseN))
	v["engine.stmt_cache_hit_ratio"] = ratio(float64(e.hits), float64(e.parseN))
	v["engine.execute_ms"] = ratio(ms(e.execute), float64(e.executeN))
	for _, op := range []string{"scan", "filter", "join", "aggregate", "order_by"} {
		v["engine."+op+"_self_ms"] = ratio(ms(e.self[op]), float64(e.traces))
	}
	files, pruned := d("engine.scan.files"), d("engine.scan.pruned")
	v["engine.files_scanned_per_query"] = ratio(files, engQueries)
	v["engine.prune_ratio"] = ratio(pruned, files+pruned)
	v["engine.footer_reads_per_query"] = ratio(d("engine.scan.footer_reads"), engQueries)
	v["engine.rows_scanned_per_row_returned"] = ratio(d("engine.scan.rows"), float64(ph.rowsReturned))
	hit, miss := d("engine.scan.cache_hit"), d("engine.scan.cache_miss")
	v["engine.scan_cache_hit_ratio"] = ratio(hit, hit+miss)
	v["engine.sim_ms_per_query"] = ratio(ms(sim), sqlN)

	v["bigmeta.refresh_ms"] = ms(ph.w.refresh)
	v["bigmeta.commits_per_write"] = ratio(d("bigmeta.meta_commits"), writes)
	v["bigmeta.log_tail_len"] = float64(ph.logTailLen)

	v["objstore.gets_per_query"] = ratio(d("objstore.get.count"), ops)
	v["objstore.get_mb_per_query"] = ratio(d("objstore.get.bytes")/1e6, ops)
	v["objstore.lists_per_query"] = ratio(d("objstore.list.count"), ops)
	v["objstore.heads_per_query"] = ratio(d("objstore.head.count"), ops)
	v["objstore.puts_per_write"] = ratio(d("objstore.put.count"), writes)

	sp := ph.spans
	v["storageapi.create_read_session_ms"] = sp.meanMS("storageapi.create_read_session")
	v["storageapi.read_rows_ms"] = sp.meanMS("storageapi.read_rows")
	v["storageapi.read_mb_per_session"] = ratio(float64(ph.readBytes)/1e6, float64(ph.readSessions))
	v["storageapi.append_rows_ms"] = sp.meanMS("storageapi.append_rows")
	v["storageapi.batch_commit_ms"] = sp.meanMS("storageapi.batch_commit")

	v["blmt.insert_ms"] = sp.meanMS("blmt.insert")
	var optWall time.Duration
	var before, after float64
	for _, o := range ph.optimizes {
		optWall += o.wall
		before += float64(o.before)
		after += float64(o.after)
	}
	n := float64(len(ph.optimizes))
	v["blmt.optimize_ms"] = ratio(ms(optWall), n)
	v["blmt.files_before_optimize"] = ratio(before, n)
	v["blmt.files_after_optimize"] = ratio(after, n)

	for _, s := range []string{"parse", "prepare", "execute", "fetch", "close"} {
		v["serve."+s+"_ms"] = sp.meanMS("serve." + s)
	}
	hb, ha := ph.regBefore.Histograms["serve.queue.wait_us"], ph.regAfter.Histograms["serve.queue.wait_us"]
	v["serve.queue_wait_ms"] = ratio(float64(ha.Sum-hb.Sum)/1000, float64(ha.Count-hb.Count))
	rejected := d("serve.rejected.queue_full") + d("serve.rejected.queue_wait") + d("serve.rejected.quota")
	v["serve.rejected_ratio"] = ratio(rejected, d("serve.submitted"))
	v["systables.jobs_recorded_per_query"] = ratio(d("systables.jobs.recorded"), float64(ph.sqlAttempts))
	v["systables.history_snapshots_per_kquery"] = 1000 * ratio(d("systables.history.snapshots"), float64(ph.sqlAttempts))

	mb, ma := &ph.memBefore, &ph.memAfter
	v["runtime.allocs_per_query"] = ratio(float64(ma.Mallocs-mb.Mallocs), ops)
	v["runtime.alloc_kb_per_query"] = ratio(float64(ma.TotalAlloc-mb.TotalAlloc)/1024, ops)
	v["runtime.gc_cycles_per_kquery"] = 1000 * ratio(float64(ma.NumGC-mb.NumGC), ops)
	v["runtime.gc_pause_ms_per_kquery"] = 1000 * ratio(float64(ma.PauseTotalNs-mb.PauseTotalNs)/1e6, ops)
	v["arena.bytes_in_use_peak_mb"] = float64(ph.heap.arenaPeak) / (1 << 20)

	v["loadgen.late_p99_ms"] = quantile(sortedMS(ph.lateness), 0.99)
	v["loadgen.backlog_max"] = float64(ph.backlogMax)
	return v
}

// writeSpans keeps the traced phase's benchmark spans, with the host
// fingerprint, under the output directory.
func writeSpans(o options, fp fingerprint, ph *phase) error {
	if o.out == "" {
		return nil
	}
	spans := append([]span(nil), ph.spans.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Host     fingerprint `json:"host"`
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Spans    []span      `json:"spans"`
	}{fp, o.workload, o.seed, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	return os.WriteFile(path, data, 0o644)
}
