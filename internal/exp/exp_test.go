package exp

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"biglake/internal/engine"
	"biglake/internal/obs"
)

// These tests assert the paper-shaped outcome of every experiment at
// small scale; bench_test.go at the repository root reruns them as
// benchmarks with reported metrics.

func TestE1MetadataCachingShape(t *testing.T) {
	res, err := RunE1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper reports ~4x overall wall clock; we require >= 2x with
	// a clear spread: prunable queries speed up far more than full
	// scans.
	if res.OverallSpeedup < 2 {
		t.Fatalf("overall speedup = %.2f, want >= 2", res.OverallSpeedup)
	}
	var prunableMax, scanMin float64
	scanMin = 1e9
	for _, r := range res.Rows {
		if r.Speedup <= 0.5 {
			t.Fatalf("%s slowed down: %.2f", r.QueryID, r.Speedup)
		}
		if r.Kind == "prunable" && r.Speedup > prunableMax {
			prunableMax = r.Speedup
		}
		if r.Kind == "scan" && r.Speedup < scanMin {
			scanMin = r.Speedup
		}
	}
	// At laptop scale the per-query spread is compressed (simulated
	// data files are small relative to per-request overheads — see
	// EXPERIMENTS.md), but prunable queries must still beat full scans.
	if prunableMax < 1.25*scanMin {
		t.Fatalf("prunable speedup %.2f should exceed scan speedup %.2f", prunableMax, scanMin)
	}
}

func TestE2VectorizedReaderShape(t *testing.T) {
	res, err := RunE2(60000)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~2x read throughput. Allow >= 1.4x for CI noise. Race
	// instrumentation penalizes the vectorized reader's tight loops
	// more than the row reader's allocation-bound ones and compresses
	// the measured gain, so under -race only require no regression.
	want := 1.4
	if raceEnabled {
		want = 1.0
	}
	if res.ThroughputGain < want {
		t.Fatalf("vectorized gain = %.2fx, want >= %.1fx", res.ThroughputGain, want)
	}
}

func TestE3SessionStatsShape(t *testing.T) {
	res, err := RunE3(1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 5x on TPC-DS. Require >= 3x.
	if res.OverallSpeedup < 3 {
		t.Fatalf("stats speedup = %.2fx, want >= 3x", res.OverallSpeedup)
	}
	for _, r := range res.Rows {
		if r.Speedup < 0.9 {
			t.Fatalf("%s regressed with stats: %.2f", r.QueryID, r.Speedup)
		}
	}
}

func TestE4ReadAPIParityShape(t *testing.T) {
	res, err := RunE4(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		// Paper: Read API matches or exceeds direct reads.
		if r.Ratio < 0.95 {
			t.Fatalf("%s: read api slower than direct (ratio %.2f)", r.QueryID, r.Ratio)
		}
	}
}

func TestE5CommitThroughputShape(t *testing.T) {
	res, err := RunE5(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputAdvantage < 3 {
		t.Fatalf("BLMT advantage = %.1fx, want >= 3x", res.ThroughputAdvantage)
	}
	// Object-store commits are capped at ~5/s by the mutation bound.
	if res.ObjStorePerSecond > 10 {
		t.Fatalf("object-store commits = %.1f/s, should be a handful", res.ObjStorePerSecond)
	}
}

func TestE6ObjectTableShape(t *testing.T) {
	res, err := RunE6(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ListSpeedup < 10 {
		t.Fatalf("object-table speedup = %.1fx, want >= 10x", res.ListSpeedup)
	}
	if res.SampleRows < 20 || res.SampleRows > 120 {
		t.Fatalf("1%% sample of 5000 = %d rows", res.SampleRows)
	}
}

func TestE7DistributedInferenceShape(t *testing.T) {
	res, err := RunE7(16)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryReduction < 1.5 {
		t.Fatalf("memory reduction = %.2fx, want >= 1.5x", res.MemoryReduction)
	}
	if res.WireReductionFactor < 5 {
		t.Fatalf("tensors should be >5x smaller than raw images, got %.1fx", res.WireReductionFactor)
	}
}

func TestE8InferenceModesShape(t *testing.T) {
	res, err := RunE8(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemotePenalty <= 1 {
		t.Fatalf("remote burst penalty = %.2fx, want > 1x", res.RemotePenalty)
	}
	if !res.BigModelRejected {
		t.Fatal(">2GB model must be rejected in-engine")
	}
}

func TestE9OmniParityShape(t *testing.T) {
	res, err := RunE9(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Ratio > 1.7 || r.Ratio < 0.6 {
			t.Fatalf("%s: aws/gcp = %.2f, want near parity", r.QueryID, r.Ratio)
		}
	}
}

func TestE10CrossCloudShape(t *testing.T) {
	res, err := RunE10(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnswersAgree {
		t.Fatal("pushdown changed the answer")
	}
	if res.EgressReduction < 3 {
		t.Fatalf("egress reduction = %.1fx, want >= 3x", res.EgressReduction)
	}
	if res.PushdownTime >= res.FullTime {
		t.Fatalf("pushdown %v should beat full shipping %v", res.PushdownTime, res.FullTime)
	}
}

func TestE11CCMVShape(t *testing.T) {
	res, err := RunE11(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReplicaRowsCorrect {
		t.Fatal("replica rows wrong")
	}
	if res.IncrementalFiles != 1 {
		t.Fatalf("incremental copied %d files, want 1", res.IncrementalFiles)
	}
	if res.EgressReduction < 3 {
		t.Fatalf("ccmv egress reduction = %.1fx, want >= 3x", res.EgressReduction)
	}
}

func TestE12GovernanceShape(t *testing.T) {
	res, err := RunE12()
	if err != nil {
		t.Fatal(err)
	}
	if !res.RowsAgree {
		t.Fatalf("row policies differ across engines: engine=%d api=%d", res.EngineRows, res.ReadAPIRows)
	}
	if !res.MaskingAgrees {
		t.Fatal("masking differs across engines")
	}
	if !res.HostileReadDenied || !res.DeniedColumnFails {
		t.Fatalf("boundary breached: hostile=%v column=%v", res.HostileReadDenied, res.DeniedColumnFails)
	}
}

func TestA1GranularityShape(t *testing.T) {
	res, err := RunA1(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.GranularityGain < 1.5 {
		t.Fatalf("file-stat pruning gain = %.1fx, want >= 1.5x", res.GranularityGain)
	}
}

func TestA2GovernancePlacementShape(t *testing.T) {
	res, err := RunA2(4000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RawLeaked {
		t.Fatal("client-side placement must expose policy-filtered rows (that is the hazard)")
	}
	if res.ExposureReduction < 2 {
		t.Fatalf("boundary enforcement should ship far fewer bytes: %.1fx", res.ExposureReduction)
	}
}

func TestA3BaselineShape(t *testing.T) {
	res, err := RunA3(2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 2 {
		t.Fatalf("baseline read speedup = %.1fx, want >= 2x", res.Speedup)
	}
}

func TestA4WireEncodingShape(t *testing.T) {
	res, err := RunA4(20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduction < 2 {
		t.Fatalf("wire reduction = %.1fx, want >= 2x", res.Reduction)
	}
}

func TestE13AvailabilityShape(t *testing.T) {
	res, err := RunE13(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]E13Row{}
	for _, r := range res.Rows {
		byKey[fmt.Sprintf("%s@%.2f", r.Arm, r.FaultRate)] = r
	}
	// Fault-free: both arms perfect, no retries spent.
	if byKey["no-retry@0.00"].SuccessRate != 1 || byKey["resilient@0.00"].SuccessRate != 1 {
		t.Fatal("fault-free arms must be perfect")
	}
	if byKey["resilient@0.00"].Retries != 0 {
		t.Fatal("no faults, no retries")
	}
	// Under faults: the resilient arm holds >= 99% while no-retry
	// visibly degrades, and the absorption is paid for in retries.
	r3, n3 := byKey["resilient@0.03"], byKey["no-retry@0.03"]
	if r3.SuccessRate < 0.99 {
		t.Fatalf("resilient success at 3%% = %.3f, want >= 0.99", r3.SuccessRate)
	}
	if n3.SuccessRate >= r3.SuccessRate {
		t.Fatalf("no-retry (%.3f) should underperform resilient (%.3f)", n3.SuccessRate, r3.SuccessRate)
	}
	if r3.Retries == 0 || r3.FaultsInjected == 0 {
		t.Fatalf("resilient arm saw no chaos: retries=%d faults=%d", r3.Retries, r3.FaultsInjected)
	}
}

// TestE13CountsOnlyEnginePolicy: E13's Retries/Hedges columns read the
// shared "resilience.*" names, which every policy in the environment
// counts into. They stand for the engine policy alone only while no
// other policy (metadata cache, Storage API) spends a retry or hedge
// during the measured rounds; this pins that down.
func TestE13CountsOnlyEnginePolicy(t *testing.T) {
	for _, arm := range []string{"no-retry", "resilient"} {
		env, queries, err := newE13Env(1, arm)
		if err != nil {
			t.Fatal(err)
		}
		others := obs.NewRegistry()
		env.Meta.Res.Meter = others.Prefixed("resilience.")
		env.Server.Res.Meter = others.Prefixed("resilience.")
		row, err := measureE13Arm(env, queries, 5, 0.05, arm)
		if err != nil {
			t.Fatal(err)
		}
		if n := others.Get("resilience.retries") + others.Get("resilience.hedges"); n != 0 {
			t.Fatalf("%s: non-engine policies spent %d retries/hedges; E13 columns would over-count", arm, n)
		}
		if arm == "resilient" && row.Retries == 0 {
			t.Fatalf("%s: engine policy spent no retries at 5%% faults", arm)
		}
	}
}

func TestE15VectorizedExecShape(t *testing.T) {
	res, err := RunE15(200000)
	if err != nil {
		t.Fatal(err)
	}
	// RunE15 itself verifies every arm returns bit-identical results;
	// here we assert the performance shape. Real-time speedups are
	// noisy at test scale (and compressed under -race, which taxes the
	// kernels' tight loops hardest), so thresholds are conservative;
	// BenchmarkE15 reports the headline numbers at full scale.
	want := 1.3
	if raceEnabled {
		want = 0.7
	}
	if res.Speedup < want {
		t.Fatalf("kernel speedup = %.2fx, want >= %.1fx", res.Speedup, want)
	}
	if len(res.Scaling) != 4 {
		t.Fatalf("scaling rows = %d", len(res.Scaling))
	}
	for _, r := range res.Scaling {
		if r.Time <= 0 {
			t.Fatalf("workers=%d time=%v", r.Workers, r.Time)
		}
	}
	if res.CacheHits == 0 {
		t.Fatal("warm run produced no scan-cache hits")
	}
	if res.CacheMisses == 0 {
		t.Fatal("cold run produced no scan-cache misses")
	}
	// Cache hits skip the GETs, which must show in simulated I/O time.
	if res.CacheWarmSim >= res.CacheColdSim {
		t.Fatalf("warm sim %v should beat cold sim %v", res.CacheWarmSim, res.CacheColdSim)
	}
}

func TestE14RecoveryShape(t *testing.T) {
	res, err := RunE14(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.RecoverySimMS <= 0 || r.GCSimMS <= 0 {
			t.Fatalf("row %d: non-positive recovery/GC time: %+v", i, r)
		}
		if r.GCDeleted != r.Orphans || r.GCBytes == 0 {
			t.Fatalf("row %d: GC mismatch: deleted=%d orphans=%d bytes=%d", i, r.GCDeleted, r.Orphans, r.GCBytes)
		}
		if i > 0 {
			prev := res.Rows[i-1]
			// The replay cost must grow with journal length, and the
			// reclaimed debris with the orphan count.
			if r.RecoverySimMS <= prev.RecoverySimMS {
				t.Fatalf("recovery time not monotone: %.2fms (n=%d) vs %.2fms (n=%d)",
					r.RecoverySimMS, r.Commits, prev.RecoverySimMS, prev.Commits)
			}
			if r.GCBytes <= prev.GCBytes {
				t.Fatalf("GC bytes not monotone: %d vs %d", r.GCBytes, prev.GCBytes)
			}
		}
	}
}

func TestE17ContentionShape(t *testing.T) {
	res, err := RunE17(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.Failed != 0 {
			t.Fatalf("writers=%d: %d transactions exhausted retries", r.Writers, r.Failed)
		}
		if r.Committed != r.Writers*res.Rounds {
			t.Fatalf("writers=%d: committed %d, want %d", r.Writers, r.Committed, r.Writers*res.Rounds)
		}
		if r.Aborts != r.Retries {
			t.Fatalf("writers=%d: aborts=%d retries=%d — every loser should retry once", r.Writers, r.Aborts, r.Retries)
		}
		if r.TxnPerSec <= 0 || r.BasePerSec <= 0 {
			t.Fatalf("writers=%d: non-positive throughput: %+v", r.Writers, r)
		}
		if i > 0 && r.AbortRate < res.Rows[i-1].AbortRate {
			t.Fatalf("abort rate not monotone: writers=%d %.3f < writers=%d %.3f",
				r.Writers, r.AbortRate, res.Rows[i-1].Writers, res.Rows[i-1].AbortRate)
		}
	}
	if res.Rows[0].Aborts != 0 {
		t.Fatalf("single writer aborted %d times", res.Rows[0].Aborts)
	}
	if last := res.Rows[len(res.Rows)-1]; last.Aborts == 0 {
		t.Fatal("256 writers produced zero conflicts — contention generator is broken")
	}
}

// e18TestConfig is a small-but-meaningful E18 shape for tests: enough
// tenants and overload to exercise shedding and both fairness
// sub-runs, small enough to run in seconds.
func e18TestConfig() E18Config {
	return E18Config{
		Seed: 5, Tenants: 48, QueriesPerTenant: 4,
		MaxConcurrent: 2, MaxQueue: 8, MaxQueueWait: 100 * time.Millisecond,
		LoadMultiples: []float64{0.5, 1, 2, 4},
		FairTenants:   8, FairQueries: 24,
		Chaos: true, CalibrationQueries: 12,
	}
}

func TestE18OverloadShape(t *testing.T) {
	res, err := RunE18Config(e18TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Offered != 48*4 {
			t.Fatalf("load %.1f: offered = %d", r.Load, r.Offered)
		}
		// The serve layer's registry must count exactly the sheds the
		// harness observed — typed, not lost.
		if int64(r.RejQueueFull) != r.ObsQueueFull || int64(r.RejQueueWait) != r.ObsQueueWait {
			t.Fatalf("load %.1f: harness sheds (%d,%d) != obs (%d,%d)",
				r.Load, r.RejQueueFull, r.RejQueueWait, r.ObsQueueFull, r.ObsQueueWait)
		}
	}
	under, over := res.Rows[0], res.Rows[len(res.Rows)-1]
	if under.RejQueueFull+under.RejQueueWait > under.Offered/10 {
		t.Fatalf("0.5x load shed %d+%d of %d — admission too aggressive",
			under.RejQueueFull, under.RejQueueWait, under.Offered)
	}
	if over.RejQueueFull+over.RejQueueWait == 0 {
		t.Fatalf("4x load shed nothing: %+v", over)
	}
	if over.Completed == 0 {
		t.Fatal("4x load collapsed goodput to zero")
	}
	// Graceful degradation: goodput at 4x within 20% of the peak.
	if res.GoodputMaxRatio < 0.8 {
		t.Fatalf("goodput collapsed under overload: 4x/peak = %.2f (peak %.0f qps, 4x %.0f qps)",
			res.GoodputMaxRatio, res.PeakGoodput, res.GoodputAtMaxLoad)
	}
	if res.EqualFairRatio > 2 {
		t.Fatalf("equal-weight tenants diverged: max/min = %.2f", res.EqualFairRatio)
	}
	if res.WeightedRatio <= 1 {
		t.Fatalf("weight-4 tenants did not outpace weight-1: ratio = %.2f", res.WeightedRatio)
	}
}

// TestE18Deterministic reruns the same config and requires bit-equal
// results — the property that makes soak regressions diffs, not
// noise.
func TestE18Deterministic(t *testing.T) {
	cfg := e18TestConfig()
	cfg.Tenants, cfg.LoadMultiples = 16, []float64{2}
	a, err := RunE18Config(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE18Config(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
}

// e19TestConfig is a small E19 shape: enough files that the swept
// rates damage 1 and 5 objects, small enough to run in seconds.
func e19TestConfig() E19Config {
	return E19Config{
		Seed: 3, Rates: []float64{0.01, 0.05},
		Files: 100, RowsPerFile: 8, Queries: 9,
	}
}

// TestE19IntegritySweep pins the detect -> contain -> repair arc: no
// query ever returns a wrong answer, every damaged object is detected
// and quarantined, and repair restores bit-exact golden answers.
func TestE19IntegritySweep(t *testing.T) {
	res, err := RunE19Config(e19TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.WrongAnswers != 0 {
		t.Fatalf("silent wrong answers: %d", res.WrongAnswers)
	}
	if !res.AllDetected || !res.RestoredAtOnePercent {
		t.Fatalf("headline criteria failed: %+v", res)
	}
	for _, r := range res.Rows {
		if r.Damaged == 0 {
			t.Fatalf("rate %.3f damaged nothing — test shape too small", r.Rate)
		}
		if r.OtherFailures != 0 {
			t.Fatalf("rate %.3f: %d untyped failures", r.Rate, r.OtherFailures)
		}
		// Containment: corruption degrades to typed failures, never to
		// silently wrong rows.
		if r.TypedFailures == 0 {
			t.Fatalf("rate %.3f: at-rest damage produced no typed failures", r.Rate)
		}
		if r.DetectionRate != 1 {
			t.Fatalf("rate %.3f: detection rate %.2f", r.Rate, r.DetectionRate)
		}
		// The default budget is half the corpus, so a full walk takes at
		// least two resumed passes.
		if r.ScrubPasses < 2 || r.ScrubBytes == 0 {
			t.Fatalf("rate %.3f: scrub passes=%d bytes=%d", r.Rate, r.ScrubPasses, r.ScrubBytes)
		}
		// Repair rewrites exactly the damaged objects; marks from in-flight
		// double corruption re-verify clean.
		if r.Rewritten != r.Damaged || r.RepairFailed != 0 {
			t.Fatalf("rate %.3f: rewritten=%d damaged=%d failed=%d",
				r.Rate, r.Rewritten, r.Damaged, r.RepairFailed)
		}
		if !r.FullAvailability {
			t.Fatalf("rate %.3f: availability not restored: %+v", r.Rate, r)
		}
	}
}

// TestE19Deterministic reruns the same config and requires bit-equal
// results.
func TestE19Deterministic(t *testing.T) {
	cfg := e19TestConfig()
	cfg.Rates = []float64{0.02}
	cfg.Files, cfg.Queries = 50, 6
	a, err := RunE19Config(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE19Config(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
}

// e20TestConfig shrinks E20 for a fast deterministic smoke run.
func e20TestConfig() E20Config {
	return E20Config{
		FactRows: 30000, DimRows: 256, FactFiles: 4,
		AllocRuns: 4, PointWarmup: 8, PointQueries: 40, MixEvery: 10,
		CellSamples: 2, Workers: []int{1, 2}, Seed: 20,
	}
}

func TestE20(t *testing.T) {
	res, err := RunE20Config(e20TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance claim is >=5x allocs/op on the benchmark shape;
	// the shrunk smoke run keeps a margin below that but must still
	// show the arena drastically off the hot path.
	if res.AllocReduction < 3 {
		t.Fatalf("allocs/op reduction = %.2fx (eager %.0f, lean %.0f), want >= 3x",
			res.AllocReduction, res.Eager.AllocsPerOp, res.Lean.AllocsPerOp)
	}
	if res.BytesReduction < 3 {
		t.Fatalf("bytes/op reduction = %.2fx, want >= 3x", res.BytesReduction)
	}
	// Wall-clock QPS on a tiny workload is too noisy to rank arms in a
	// unit test; just require both arms ran.
	if res.EagerQPS <= 0 || res.LeanQPS <= 0 {
		t.Fatalf("point-lookup arm did not run: eager=%f lean=%f", res.EagerQPS, res.LeanQPS)
	}
	wantCells := 2 * len(e20TestConfig().Workers) * 2
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	for _, c := range res.Cells {
		if c.MeanUs <= 0 || c.Samples != e20TestConfig().CellSamples {
			t.Fatalf("bad cell %+v", c)
		}
	}
}

func TestE20TrajectoryCompare(t *testing.T) {
	base := []E20Cell{
		{Name: "a", MeanUs: 1000, StddevUs: 20},
		{Name: "b", MeanUs: 1000, StddevUs: 300},
		{Name: "gone", MeanUs: 50, StddevUs: 1},
	}
	cur := []E20Cell{
		// 30% slower, tight noise: must flag.
		{Name: "a", MeanUs: 1300, StddevUs: 25},
		// 30% slower but inside 3 sigma of a noisy cell: must not flag.
		{Name: "b", MeanUs: 1300, StddevUs: 300},
		// New cell with no baseline: skipped.
		{Name: "new", MeanUs: 9999, StddevUs: 1},
	}
	regs := TrajectoryCompare(base, cur)
	if len(regs) != 1 || regs[0].Cell != "a" {
		t.Fatalf("regressions = %v, want exactly cell a", regs)
	}
	if regs[0].ExcessUs <= 0 || regs[0].BandUs <= 0 {
		t.Fatalf("bad regression record: %+v", regs[0])
	}
	// Small-relative-change guard: 3 sigma exceeded but under 10%.
	regs = TrajectoryCompare(
		[]E20Cell{{Name: "c", MeanUs: 10000, StddevUs: 10}},
		[]E20Cell{{Name: "c", MeanUs: 10500, StddevUs: 10}})
	if len(regs) != 0 {
		t.Fatalf("flagged a <10%% drift as regression: %v", regs)
	}
}

// BenchmarkE20GCLean is the headline benchmark: the E15 star join on a
// warmed GC-lean engine. Run with -benchmem; allocs/op is the number
// the arena work is judged by.
func BenchmarkE20GCLean(b *testing.B) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if err := loadE15(env, 30000, 256, 4); err != nil {
		b.Fatal(err)
	}
	opts := engine.DefaultOptions()
	opts.EnableScanCache = true
	eng := engine.New(env.Cat, env.Auth, env.Meta, env.Log, env.Clock, env.Engine.Stores, opts)
	eng.ManagedCred = env.Cred
	if _, err := eng.Query(engine.NewContext(Admin, "bench-warm"), e15Query); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(engine.NewContext(Admin, fmt.Sprintf("bench-%d", i)), e15Query); err != nil {
			b.Fatal(err)
		}
	}
}
