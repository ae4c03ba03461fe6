package engine

import (
	"runtime"
	"testing"
	"time"
)

// coldScanTrace is what one same-seed run of the cold-scan workload
// observes; two runs must produce identical traces.
type coldScanTrace struct {
	gets         int64
	simElapsed   []time.Duration
	hits, misses int64
}

// runColdScans builds a fresh world whose partitioned table is larger
// than the scan cache, then scans it whole and region by region, so
// which files the cache keeps after each scan decides the next scan's
// GETs.
func runColdScans(t *testing.T, cacheBytes int64) (coldScanTrace, int64) {
	t.Helper()
	opts := DefaultOptions()
	opts.EnableScanCache = true
	opts.ScanCacheBytes = cacheBytes
	ev := newEnv(t, opts)
	ev.createOrders(t, []string{"r0", "r1", "r2", "r3"}, 24, 64, true)
	var tr coldScanTrace
	for _, sql := range []string{
		`SELECT COUNT(*) AS n FROM ds.orders`,
		`SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'r0'`,
		`SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'r3'`,
		`SELECT COUNT(*) AS n FROM ds.orders`,
		`SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'r1'`,
		`SELECT COUNT(*) AS n FROM ds.orders WHERE region = 'r2'`,
		`SELECT COUNT(*) AS n FROM ds.orders`,
	} {
		res := ev.query(t, adminP, sql)
		tr.simElapsed = append(tr.simElapsed, res.Stats.SimElapsed)
		tr.hits += res.Stats.CacheHits
		tr.misses += res.Stats.CacheMisses
	}
	tr.gets = ev.store.Obs().Get("objstore.get.count")
	return tr, ev.eng.Obs.Gauge("engine.scan.cache_bytes").Get()
}

// TestColdScanDeterministicAcrossProcs pins the cold-file fetch to a
// seeded trajectory at any GOMAXPROCS: with a scan cache smaller than
// the table, same-seed runs must issue the same GETs, charge the same
// simulated time, and see the same cache hits and misses. Scheduling
// order must not decide which worker track a file lands on nor which
// decoded file the cache evicts.
func TestColdScanDeterministicAcrossProcs(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		procs = 4
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	// Size the cache to about 40% of the decoded table.
	_, full := runColdScans(t, 1<<30)
	budget := full * 2 / 5

	want, _ := runColdScans(t, budget)
	if want.hits == 0 || want.misses == 0 {
		t.Fatalf("workload does not exercise eviction: %+v", want)
	}
	for run := 1; run < 6; run++ {
		got, _ := runColdScans(t, budget)
		if got.gets != want.gets || got.hits != want.hits || got.misses != want.misses {
			t.Fatalf("run %d: gets/hits/misses = %d/%d/%d, want %d/%d/%d",
				run, got.gets, got.hits, got.misses, want.gets, want.hits, want.misses)
		}
		for i := range want.simElapsed {
			if got.simElapsed[i] != want.simElapsed[i] {
				t.Fatalf("run %d query %d: SimElapsed = %v, want %v", run, i, got.simElapsed[i], want.simElapsed[i])
			}
		}
	}
}
