package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/crashpoint"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

const adminP = security.Principal("admin@corp")

type env struct {
	clock *sim.Clock
	store *objstore.Store
	cat   *catalog.Catalog
	auth  *security.Authority
	log   *bigmeta.Log
	blmt  *blmt.Manager
	eng   *engine.Engine
	mgr   *Manager
	j     *wal.Journal
	cp    *crashpoint.Injector
	cred  objstore.Credential
}

// newEnv wires the full stack: catalog + authority + log + journal +
// engine + blmt mutator (for non-transactional setup DML) + txn
// manager, on one simulated object store.
func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	for _, b := range []string{"customer-bucket", "journal-bucket"} {
		if err := store.CreateBucket(cred, b); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	log := bigmeta.NewLog(clock)
	j, err := wal.Open(store, cred, "journal-bucket", "")
	if err != nil {
		t.Fatal(err)
	}
	log.AttachJournal(j)
	cp := &crashpoint.Injector{}
	log.Crash = cp
	stores := map[string]*objstore.Store{"gcp": store}
	bm := blmt.New(cat, auth, log, clock, stores)
	bm.DefaultCloud, bm.DefaultBucket, bm.DefaultConnection = "gcp", "customer-bucket", "conn"
	bm.Journal, bm.Crash = j, cp
	meta := bigmeta.NewCache(clock)
	eng := engine.New(cat, auth, meta, log, clock, stores, engine.DefaultOptions())
	eng.ManagedCred = cred
	eng.SetMutator(bm)
	mgr := NewManager(eng, j)
	mgr.Crash = cp
	return &env{clock: clock, store: store, cat: cat, auth: auth, log: log,
		blmt: bm, eng: eng, mgr: mgr, j: j, cp: cp, cred: cred}
}

func (ev *env) createTable(t *testing.T, name string) {
	t.Helper()
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: name, Type: catalog.Managed,
		Schema: vector.NewSchema(
			vector.Field{Name: "id", Type: vector.Int64},
			vector.Field{Name: "v", Type: vector.Int64},
		),
		Cloud: "gcp", Bucket: "customer-bucket",
		Prefix: "blmt/ds/" + name + "/", Connection: "conn",
	}); err != nil {
		t.Fatal(err)
	}
}

// sql runs a statement outside any transaction (autocommit path).
func (ev *env) sql(t *testing.T, q string) *engine.Result {
	t.Helper()
	res, err := ev.eng.Query(engine.NewContext(adminP, fmt.Sprintf("q%d", ev.log.Version())), q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func rowCount(t *testing.T) func(*engine.Result, error) int {
	return func(res *engine.Result, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res.Batch.N
	}
}

// gcOnce runs one orphan-GC pass over the data and journal prefixes.
func (ev *env) gcOnce(t *testing.T) wal.GCReport {
	t.Helper()
	rep, err := wal.GCOrphans(ev.store, ev.cred, "customer-bucket", []string{"blmt/"}, ev.log)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSnapshotIsolation(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "acct")
	ev.sql(t, "INSERT INTO ds.acct VALUES (1, 100), (2, 200)")

	s := ev.mgr.Begin(adminP, "txn-si")
	if n := rowCount(t)(s.Exec("SELECT id FROM ds.acct")); n != 2 {
		t.Fatalf("pinned read = %d rows, want 2", n)
	}
	// A commit lands after the session began: invisible to the pinned
	// snapshot, visible outside.
	ev.sql(t, "INSERT INTO ds.acct VALUES (3, 300)")
	if n := rowCount(t)(s.Exec("SELECT id FROM ds.acct")); n != 2 {
		t.Fatalf("snapshot leaked: %d rows, want 2", n)
	}
	if n := rowCount(t)(ev.eng.Query(engine.NewContext(adminP, "qo"), "SELECT id FROM ds.acct")); n != 3 {
		t.Fatalf("outside read = %d rows, want 3", n)
	}
	// Read-only commit succeeds at the snapshot version despite the
	// concurrent write.
	v, err := s.Commit(nil)
	if err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	if v != s.Snapshot() {
		t.Fatalf("read-only commit version = %d, want snapshot %d", v, s.Snapshot())
	}
}

func TestReadYourWritesAndMultiTableAtomicity(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "a")
	ev.createTable(t, "b")
	ev.sql(t, "INSERT INTO ds.a VALUES (1, 10)")

	s := ev.mgr.Begin(adminP, "txn-ryw")
	if _, err := s.Exec("INSERT INTO ds.a VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO ds.b VALUES (9, 90)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("UPDATE ds.a SET v = 11 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// The session sees its own buffered effects...
	res, err := s.Exec("SELECT v FROM ds.a ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.N != 2 || res.Batch.Row(0)[0].I != 11 || res.Batch.Row(1)[0].I != 20 {
		t.Fatalf("read-your-writes: got %d rows, first=%v", res.Batch.N, res.Batch.Row(0))
	}
	// ...while the outside world sees nothing until COMMIT.
	if n := rowCount(t)(ev.eng.Query(engine.NewContext(adminP, "qo"), "SELECT id FROM ds.b")); n != 0 {
		t.Fatalf("uncommitted write leaked: %d rows in ds.b", n)
	}
	before := ev.log.Version()
	v, err := s.Commit(nil)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Both tables moved in ONE log version: multi-table atomicity.
	if v != before+1 {
		t.Fatalf("commit version = %d, want %d (single atomic version)", v, before+1)
	}
	if res := ev.sql(t, "SELECT v FROM ds.a WHERE id = 1"); res.Batch.N != 1 || res.Batch.Row(0)[0].I != 11 {
		t.Fatalf("committed update lost: %v", res.Batch)
	}
	if n := rowCount(t)(ev.eng.Query(engine.NewContext(adminP, "qo2"), "SELECT id FROM ds.b")); n != 1 {
		t.Fatalf("ds.b rows = %d, want 1", n)
	}
	// Nothing to reclaim: the commit's files are all referenced.
	if rep := ev.gcOnce(t); len(rep.Deleted) != 0 {
		t.Fatalf("GC deleted %v after clean commit", rep.Deleted)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "acct")
	ev.sql(t, "INSERT INTO ds.acct VALUES (1, 100)")

	s1 := ev.mgr.Begin(adminP, "txn-w1")
	s2 := ev.mgr.Begin(adminP, "txn-w2")
	if _, err := s1.Exec("UPDATE ds.acct SET v = 101 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE ds.acct SET v = 102 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Commit(nil); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	_, err := s2.Commit(nil)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	if got := ev.eng.Obs.Get("txn.aborts.conflict"); got != 1 {
		t.Fatalf("txn.aborts.conflict = %d, want 1", got)
	}
	// The winner's value survives; the loser wrote nothing.
	if res := ev.sql(t, "SELECT v FROM ds.acct WHERE id = 1"); res.Batch.Row(0)[0].I != 101 {
		t.Fatalf("v = %d, want 101", res.Batch.Row(0)[0].I)
	}
	if rep := ev.gcOnce(t); len(rep.Deleted) != 0 {
		t.Fatalf("conflict abort left orphans: %v", rep.Deleted)
	}
}

func TestBlindInsertsCommute(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "events")

	s1 := ev.mgr.Begin(adminP, "txn-i1")
	s2 := ev.mgr.Begin(adminP, "txn-i2")
	if _, err := s1.Exec("INSERT INTO ds.events VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("INSERT INTO ds.events VALUES (2, 2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Commit(nil); err != nil {
		t.Fatalf("s1: %v", err)
	}
	// s2 also inserted into the same table from the same snapshot, but
	// a blind insert reads nothing and removes nothing — it commutes.
	if _, err := s2.Commit(nil); err != nil {
		t.Fatalf("blind insert should commute: %v", err)
	}
	if n := rowCount(t)(ev.eng.Query(engine.NewContext(adminP, "qo"), "SELECT id FROM ds.events")); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
}

func TestReadWriteConflictPhantom(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "acct")
	ev.createTable(t, "audit")
	ev.sql(t, "INSERT INTO ds.acct VALUES (1, 100)")

	// s reads acct and writes its sum into audit; meanwhile a
	// concurrent insert lands in acct. Serializability demands s
	// abort: its audit row no longer reflects acct.
	s := ev.mgr.Begin(adminP, "txn-ph")
	if _, err := s.Exec("SELECT v FROM ds.acct"); err != nil {
		t.Fatal(err)
	}
	ev.sql(t, "INSERT INTO ds.acct VALUES (2, 50)")
	if _, err := s.Exec("INSERT INTO ds.audit VALUES (1, 100)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("phantom commit err = %v, want ErrConflict", err)
	}
}

// TestRollbackLeavesNoOrphans is the satellite-3 matrix: explicit
// ROLLBACK, abort-on-conflict, and abort-on-chaos-fault each leave
// zero orphans after a single GCOrphans pass.
func TestRollbackLeavesNoOrphans(t *testing.T) {
	t.Run("explicit", func(t *testing.T) {
		ev := newEnv(t)
		ev.createTable(t, "x")
		s := ev.mgr.Begin(adminP, "txn-rb")
		if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
			t.Fatal(err)
		}
		res, err := s.Exec("ROLLBACK")
		if err != nil || res.Batch.N != 1 {
			t.Fatalf("rollback: %v %v", err, res)
		}
		// Idempotent: a second rollback is a no-op.
		if err := s.Rollback(); err != nil {
			t.Fatalf("second rollback: %v", err)
		}
		if _, err := s.Exec("SELECT id FROM ds.x"); !errors.Is(err, ErrClosed) {
			t.Fatalf("statement after rollback err = %v, want ErrClosed", err)
		}
		if rep := ev.gcOnce(t); len(rep.Deleted) != 0 {
			t.Fatalf("explicit rollback left orphans: %v", rep.Deleted)
		}
		if n := ev.store.ObjectCount("customer-bucket", "blmt/ds/x/"); n != 0 {
			t.Fatalf("rollback wrote %d data files", n)
		}
		if got := ev.eng.Obs.Get("txn.aborts.explicit"); got != 1 {
			t.Fatalf("txn.aborts.explicit = %d, want 1", got)
		}
	})
	t.Run("conflict", func(t *testing.T) {
		ev := newEnv(t)
		ev.createTable(t, "x")
		ev.sql(t, "INSERT INTO ds.x VALUES (1, 1)")
		s := ev.mgr.Begin(adminP, "txn-cf")
		if _, err := s.Exec("DELETE FROM ds.x WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		ev.sql(t, "UPDATE ds.x SET v = 2 WHERE id = 1")
		if _, err := s.Commit(nil); !errors.Is(err, ErrConflict) {
			t.Fatal("want conflict")
		}
		// Pre-validation caught it before anything durable was
		// written: one GC pass finds nothing.
		if rep := ev.gcOnce(t); len(rep.Deleted) != 0 {
			t.Fatalf("conflict abort left orphans: %v", rep.Deleted)
		}
	})
	t.Run("chaos-fault", func(t *testing.T) {
		ev := newEnv(t)
		ev.createTable(t, "x")
		s := ev.mgr.Begin(adminP, "txn-ch")
		if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
			t.Fatal(err)
		}
		// Every data-path call on the customer bucket faults; the
		// journal bucket stays healthy, so the intent and the abort
		// record both land while the PUTs exhaust their retries.
		ev.store.InjectFaults(objstore.FaultProfile{
			Seed: 7, PerBucket: map[string]float64{"customer-bucket": 1.0},
		})
		_, err := s.Commit(nil)
		if err == nil || errors.Is(err, ErrConflict) {
			t.Fatalf("commit under total fault err = %v", err)
		}
		if got := ev.eng.Obs.Get("txn.aborts.fault"); got != 1 {
			t.Fatalf("txn.aborts.fault = %d, want 1", got)
		}
		ev.store.InjectFaults(objstore.FaultProfile{})
		if rep := ev.gcOnce(t); len(rep.Deleted) != 0 {
			t.Fatalf("fault abort left orphans: %v", rep.Deleted)
		}
		// The journal holds intent + abort for the txn: recovery
		// classifies it as cleanly aborted, not unsealed.
		rec, err := wal.Recover(ev.j, ev.clock)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Report.AbortedIntents) != 1 || rec.Report.AbortedIntents[0] != "txn-ch" {
			t.Fatalf("aborted intents = %v, want [txn-ch]", rec.Report.AbortedIntents)
		}
	})
}

// TestCrashMidCommitDebrisCollected arms a crash between the data PUT
// and the seal: the stranded file is referenced by nothing, and a
// single GC pass reclaims it.
func TestCrashMidCommitDebrisCollected(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	s := ev.mgr.Begin(adminP, "txn-crash")
	if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	ev.cp.Arm("txn.after_put", 0)
	sig, err := crashpoint.Run(func() error {
		_, e := s.Commit(nil)
		return e
	})
	if sig == nil || sig.Label != "txn.after_put" {
		t.Fatalf("crash did not fire: sig=%v err=%v", sig, err)
	}
	ev.cp.Disarm()
	// The stranded data file exists but no sealed commit references it.
	if n := ev.store.ObjectCount("customer-bucket", "blmt/ds/x/"); n != 1 {
		t.Fatalf("stranded files = %d, want 1", n)
	}
	rep := ev.gcOnce(t)
	if len(rep.Deleted) != 1 {
		t.Fatalf("GC pass 1 deleted %v, want exactly the stranded file", rep.Deleted)
	}
	if rep2 := ev.gcOnce(t); len(rep2.Deleted) != 0 {
		t.Fatalf("GC pass 2 deleted %v, want none", rep2.Deleted)
	}
}

// TestCommitReplayIsNoop: a session begun with an already-sealed
// transaction ID discovers that at COMMIT and returns the original
// version without writing anything (crash-safe client retry).
func TestCommitReplayIsNoop(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	s1 := ev.mgr.Begin(adminP, "txn-dup")
	if _, err := s1.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	v1, err := s1.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := ev.mgr.Begin(adminP, "txn-dup")
	if _, err := s2.Exec("INSERT INTO ds.x VALUES (2, 2)"); err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Commit(nil)
	if err != nil || v2 != v1 {
		t.Fatalf("replay commit = (%d, %v), want (%d, nil)", v2, err, v1)
	}
	if got := ev.eng.Obs.Get("txn.commit.replays"); got != 1 {
		t.Fatalf("txn.commit.replays = %d, want 1", got)
	}
	if n := rowCount(t)(ev.eng.Query(engine.NewContext(adminP, "qo"), "SELECT id FROM ds.x")); n != 1 {
		t.Fatalf("replay applied twice: %d rows", n)
	}
}

// TestCommitDeadline is the satellite-1 regression: an injected
// storage slowdown pushes the commit past the session deadline, and
// the commit aborts with ErrDeadlineExceeded instead of spinning.
// TestCommitRetriesCounter: transient PUT faults absorbed by the
// resilience policy during COMMIT surface as txn.commit.retries, and
// the commit still succeeds.
func TestCommitRetriesCounter(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	s := ev.mgr.Begin(adminP, "txn-rty")
	if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	ev.store.InjectFaults(objstore.FaultProfile{Seed: 7, PerOp: map[objstore.Op]float64{objstore.OpPut: 0.4}})
	if _, err := s.Commit(nil); err != nil {
		t.Fatalf("commit under transient faults: %v", err)
	}
	ev.store.InjectFaults(objstore.FaultProfile{})
	if got := ev.eng.Obs.Get("txn.commit.retries"); got == 0 {
		t.Fatal("txn.commit.retries = 0 under a 40% transient PUT rate")
	}
}

func TestCommitDeadline(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	s := ev.mgr.Begin(adminP, "txn-dl")
	s.Deadline = 200 * time.Millisecond
	if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	ev.store.InjectFaults(objstore.FaultProfile{Seed: 3, SlowdownRate: 1.0, Slowdown: time.Second})
	start := ev.clock.Now()
	_, err := s.Commit(nil)
	if !errors.Is(err, resilience.ErrDeadlineExceeded) {
		t.Fatalf("commit err = %v, want deadline", err)
	}
	// It gave up promptly: a couple of slow calls, not a retry storm.
	if spent := ev.clock.Now() - start; spent > 5*time.Second {
		t.Fatalf("commit spun for %v past its 200ms deadline", spent)
	}
	if got := ev.eng.Obs.Get("txn.aborts.deadline"); got != 1 {
		t.Fatalf("txn.aborts.deadline = %d, want 1", got)
	}
	ev.store.InjectFaults(objstore.FaultProfile{})
	if rep := ev.gcOnce(t); len(rep.Deleted) != 0 {
		t.Fatalf("deadline abort left orphans: %v", rep.Deleted)
	}
}

// TestTxnMetricsAndSpans is the satellite-2 check: session counters,
// the snapshot-pin-age histogram, and BEGIN/COMMIT spans with their
// protocol children.
func TestTxnMetricsAndSpans(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	ev.mgr.Tracer = &obs.Tracer{}
	s := ev.mgr.Begin(adminP, "txn-obs")
	if got := ev.eng.Obs.Get("txn.begins"); got != 1 {
		t.Fatalf("txn.begins = %d", got)
	}
	if got := ev.eng.Obs.Gauge("txn.sessions.active").Get(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
	if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := ev.eng.Obs.Get("txn.commits"); got != 1 {
		t.Fatalf("txn.commits = %d", got)
	}
	if got := ev.eng.Obs.Gauge("txn.sessions.active").Get(); got != 0 {
		t.Fatalf("active = %d, want 0 after commit", got)
	}
	snap := ev.eng.Obs.Snapshot()
	if h := snap.Histograms["txn.snapshot.pin_age_us"]; h.Count != 1 {
		t.Fatalf("pin-age observations = %d, want 1", h.Count)
	}
	tr := s.Trace()
	if tr == nil {
		t.Fatal("no trace")
	}
	if sp := tr.Find("txn.begin"); len(sp) != 1 {
		t.Fatalf("txn.begin spans = %d", len(sp))
	} else if v, ok := sp[0].IntAttr("snapshot_version"); !ok || v != s.Snapshot() {
		t.Fatalf("begin span snapshot_version = %d,%v", v, ok)
	}
	cs := tr.Find("txn.commit")
	if len(cs) != 1 {
		t.Fatalf("txn.commit spans = %d", len(cs))
	}
	for _, child := range []string{"txn.intent", "txn.put", "txn.seal"} {
		if len(tr.Find(child)) != 1 {
			t.Fatalf("missing commit child span %s", child)
		}
	}
}

// TestEngineTxnControlStatements: BEGIN/COMMIT/ROLLBACK parse
// everywhere but only run inside a session.
func TestEngineTxnControlStatements(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	if _, err := ev.eng.Query(engine.NewContext(adminP, "q"), "BEGIN"); !errors.Is(err, engine.ErrNoTxn) {
		t.Fatalf("bare BEGIN err = %v, want ErrNoTxn", err)
	}
	s := ev.mgr.Begin(adminP, "txn-sql")
	if _, err := s.Exec("BEGIN TRANSACTION"); !errors.Is(err, ErrNested) {
		t.Fatalf("nested BEGIN err = %v", err)
	}
	if _, err := s.Exec("INSERT INTO ds.x VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Schema.Fields[0].Name != "commit_version" || res.Batch.Row(0)[0].I != s.Version() {
		t.Fatalf("COMMIT result = %v", res.Batch.Row(0))
	}
	// COMMIT on a committed session is idempotent (same version).
	if v, err := s.Commit(nil); err != nil || v != s.Version() {
		t.Fatalf("re-commit = (%d, %v)", v, err)
	}
	if _, err := s.Exec("INSERT INTO ds.x VALUES (2, 2)"); !errors.Is(err, ErrClosed) {
		t.Fatalf("statement after commit err = %v", err)
	}
}

// TestConcurrentSessions drives many goroutine-parallel sessions
// (race-detector food): blind inserts all commute, and the log lands
// exactly one version per committed transaction.
func TestConcurrentSessions(t *testing.T) {
	ev := newEnv(t)
	ev.createTable(t, "x")
	const n = 16
	before := ev.log.Version()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := ev.mgr.Begin(adminP, fmt.Sprintf("txn-con-%02d", i))
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO ds.x VALUES (%d, %d)", i, i)); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = s.Commit(nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := ev.log.Version(); got != before+n {
		t.Fatalf("log version = %d, want %d", got, before+n)
	}
	if n2 := rowCount(t)(ev.eng.Query(engine.NewContext(adminP, "qo"), "SELECT id FROM ds.x")); n2 != n {
		t.Fatalf("rows = %d, want %d", n2, n)
	}
	if got := ev.eng.Obs.Gauge("txn.sessions.active").Get(); got != 0 {
		t.Fatalf("active sessions = %d, want 0", got)
	}
}
