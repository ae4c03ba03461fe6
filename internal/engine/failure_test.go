package engine

import (
	"errors"
	"testing"

	"biglake/internal/objstore"
	"biglake/internal/resilience"
)

// Failure-injection tests. With the resilience layer wired in, a
// single transient fault is absorbed by retries; to assert the raw
// fault still propagates cleanly the tests pin the engine to a
// no-retry policy. Both behaviors are covered: surfacing (NoRetry)
// and absorption (DefaultPolicy).

func TestScanSurfacesTransientGetFailure(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.eng.Res = resilience.NoRetry() // surface raw faults
	ev.createOrders(t, []string{"us", "eu"}, 3, 20, true)
	ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders") // warm cache

	ev.store.FailNext(1)
	if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT COUNT(*) AS n FROM ds.orders"); !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	// The failure is transient: the retry succeeds with the full
	// answer.
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	if res.Batch.Column("n").Value(0).AsInt() != 120 {
		t.Fatalf("retry count = %v", res.Batch.Row(0))
	}
}

func TestScanRetriesAbsorbTransientGetFailure(t *testing.T) {
	// Under the default policy the same single fault never reaches the
	// caller: the retry layer absorbs it and the query succeeds.
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us", "eu"}, 3, 20, true)
	ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders") // warm cache

	ev.store.FailNext(1)
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	if res.Batch.Column("n").Value(0).AsInt() != 120 {
		t.Fatalf("count = %v", res.Batch.Row(0))
	}
	if got := ev.eng.Obs.Get("resilience.retries"); got == 0 {
		t.Fatal("expected at least one metered retry")
	}
}

func TestUncachedScanSurfacesListFailure(t *testing.T) {
	ev := newEnv(t, Options{UseMetadataCache: false})
	ev.eng.Res = resilience.NoRetry()
	ev.createOrders(t, []string{"us"}, 2, 10, false)
	ev.store.FailNext(1) // the LIST call fails
	if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT * FROM ds.orders"); !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailureMidParallelScanDoesNotPanic(t *testing.T) {
	// Many files, one injected failure somewhere in the worker fan-out:
	// the scan must return one error and all goroutines must drain.
	ev := newEnv(t, DefaultOptions())
	ev.eng.Res = resilience.NoRetry()
	ev.createOrders(t, []string{"us"}, 24, 5, true)
	ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders") // warm cache
	for trial := 0; trial < 5; trial++ {
		ev.store.FailNext(1)
		if _, err := ev.eng.Query(NewContext(adminP, "q"), "SELECT COUNT(*) AS n FROM ds.orders"); !errors.Is(err, objstore.ErrTransient) {
			t.Fatalf("trial %d: err = %v", trial, err)
		}
	}
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders")
	if res.Batch.Column("n").Value(0).AsInt() != 120 {
		t.Fatal("engine state poisoned after injected failures")
	}
}

func TestQueryDeadlineExceeded(t *testing.T) {
	// A query whose deadline is shorter than its unavoidable I/O time
	// fails with the classified deadline error, not a hang or a raw
	// transient.
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 8, 20, true)

	ctx := NewContext(adminP, "qdl")
	ctx.Deadline = 1 // 1ns of simulated time: nothing fits
	_, err := ev.eng.Query(ctx, "SELECT COUNT(*) AS n FROM ds.orders")
	if !errors.Is(err, resilience.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}

	// A generous deadline leaves the query unaffected.
	ctx2 := NewContext(adminP, "qdl2")
	ctx2.Deadline = 1 << 50
	res, err := ev.eng.Query(ctx2, "SELECT COUNT(*) AS n FROM ds.orders")
	if err != nil {
		t.Fatalf("query with generous deadline failed: %v", err)
	}
	if res.Batch.Column("n").Value(0).AsInt() != 160 {
		t.Fatalf("count = %v", res.Batch.Row(0))
	}
}
