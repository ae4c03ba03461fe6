package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/txn"
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
	mgr   *txn.Manager
	j     *wal.Journal
	cred  objstore.Credential
	srv   *Server
}

// newEnv wires the full stack — store, catalog, authority, log,
// journal, engine, blmt mutator, txn manager — and fronts it with a
// server under cfg.
func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	for _, b := range []string{"data-bucket", "journal-bucket"} {
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
	stores := map[string]*objstore.Store{"gcp": store}
	bm := blmt.New(cat, auth, log, clock, stores)
	bm.DefaultCloud, bm.DefaultBucket, bm.DefaultConnection = "gcp", "data-bucket", "conn"
	bm.Journal = j
	meta := bigmeta.NewCache(clock)
	eng := engine.New(cat, auth, meta, log, clock, stores, engine.DefaultOptions())
	eng.ManagedCred = cred
	eng.SetMutator(bm)
	mgr := txn.NewManager(eng, j)
	return &env{clock: clock, store: store, cat: cat, auth: auth, log: log,
		blmt: bm, eng: eng, mgr: mgr, j: j, cred: cred,
		srv: New(eng, mgr, cfg)}
}

func (ev *env) createTable(t *testing.T, name string) {
	t.Helper()
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: name, Type: catalog.Managed,
		Schema: vector.NewSchema(
			vector.Field{Name: "id", Type: vector.Int64},
			vector.Field{Name: "v", Type: vector.Int64},
		),
		Cloud: "gcp", Bucket: "data-bucket",
		Prefix: "blmt/ds/" + name + "/", Connection: "conn",
	}); err != nil {
		t.Fatal(err)
	}
}

// seedRows autocommits n rows into ds.<table> via the engine.
func (ev *env) seedRows(t *testing.T, table string, n int) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO ds.%s VALUES ", table)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i*10)
	}
	if _, err := ev.eng.Query(engine.NewContext(adminP, fmt.Sprintf("seed-%s", table)), sb.String()); err != nil {
		t.Fatal(err)
	}
}

func (ev *env) open(t *testing.T, p security.Principal) *Session {
	t.Helper()
	s, err := ev.srv.Open(p, "t")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// admState reads the admitter's capacity accounting.
func (ev *env) admState() (running int, memUsed int64, queued int) {
	a := ev.srv.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, a.memUsed, a.q.len()
}

func TestSessionLifecyclePaging(t *testing.T) {
	ev := newEnv(t, Config{PageRows: 3})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 10)

	sess := ev.open(t, adminP)
	defer sess.Close()

	p, err := sess.Parse("SELECT id, v FROM ds.t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "select" {
		t.Fatalf("kind = %q", p.Kind())
	}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	if got := p.Tables(); len(got) != 1 || got[0] != "ds.t" {
		t.Fatalf("tables = %v", got)
	}
	if p.Cost() <= minCost {
		t.Fatalf("cost = %d, want > floor (table has data)", p.Cost())
	}
	cur, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is held while the cursor streams.
	if running, mem, _ := ev.admState(); running != 1 || mem < p.Cost() {
		t.Fatalf("mid-stream: running=%d mem=%d", running, mem)
	}
	var sizes []int
	var total int
	for {
		pg, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			break
		}
		if len(pg.Schema.Fields) != 2 {
			t.Fatalf("page schema: %v", pg.Schema.Fields)
		}
		sizes = append(sizes, pg.N)
		total += pg.N
	}
	if want := []int{3, 3, 3, 1}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("page sizes = %v, want %v", sizes, want)
	}
	if total != 10 {
		t.Fatalf("rows = %d", total)
	}
	if cur.Egress() == 0 {
		t.Fatal("no egress accounted")
	}
	cur.Close()
	if running, mem, _ := ev.admState(); running != 0 || mem != 0 {
		t.Fatalf("after close: running=%d mem=%d", running, mem)
	}
	u := ev.srv.Usage()[string(adminP)]
	if u.Completed != 1 || u.Egress != cur.Egress() {
		t.Fatalf("usage = %+v (egress %d)", u, cur.Egress())
	}
	if got := ev.eng.Obs.Get("serve.admitted"); got != 1 {
		t.Fatalf("serve.admitted = %d", got)
	}
}

// TestPagedEqualsDirect reassembles a paged stream and compares it to
// direct engine execution row-for-row.
func TestPagedEqualsDirect(t *testing.T) {
	ev := newEnv(t, Config{PageRows: 4})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 23)

	const q = "SELECT id, v FROM ds.t WHERE id < 17 ORDER BY id DESC"
	direct, err := ev.eng.Query(engine.NewContext(adminP, "direct"), q)
	if err != nil {
		t.Fatal(err)
	}
	sess := ev.open(t, adminP)
	defer sess.Close()
	cur, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != direct.Batch.N {
		t.Fatalf("rows: served %d direct %d", got.N, direct.Batch.N)
	}
	for r := 0; r < got.N; r++ {
		for c := range got.Cols {
			a, b := got.Cols[c].Value(r), direct.Batch.Cols[c].Value(r)
			if a != b {
				t.Fatalf("row %d col %d: served %v direct %v", r, c, a, b)
			}
		}
	}
}

func TestZeroRowResultStillReturnsSchema(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 3)
	sess := ev.open(t, adminP)
	defer sess.Close()
	cur, err := sess.Query("SELECT id FROM ds.t WHERE id > 100")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	pg, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if pg == nil || pg.N != 0 || len(pg.Schema.Fields) != 1 {
		t.Fatalf("first page = %+v", pg)
	}
	if pg2, _ := cur.Next(); pg2 != nil {
		t.Fatalf("second page = %+v", pg2)
	}
}

// TestOverloadShedsTyped drives the admitter past its caps and checks
// rejections are typed, counted, and carry retry-after hints — and
// that capacity freed later actually grants queued work.
func TestOverloadShedsTyped(t *testing.T) {
	ev := newEnv(t, Config{MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: time.Hour})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 4)
	sess := ev.open(t, adminP)
	defer sess.Close()

	prep := func() *Prepared {
		p, err := sess.Parse("SELECT id FROM ds.t")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	now := ev.clock.Now()

	var first *Cursor
	prep().ExecuteAt(now, func(_ time.Duration, run func() (*Cursor, error), err error) {
		if err != nil {
			t.Fatalf("first: %v", err)
		}
		c, rerr := run()
		if rerr != nil {
			t.Fatalf("first run: %v", rerr)
		}
		first = c
	})
	if first == nil {
		t.Fatal("first query not granted inline")
	}

	var queuedRan bool
	prep().ExecuteAt(now, func(_ time.Duration, run func() (*Cursor, error), err error) {
		if err != nil {
			t.Fatalf("queued: %v", err)
		}
		c, rerr := run()
		if rerr != nil {
			t.Fatalf("queued run: %v", rerr)
		}
		c.Close()
		queuedRan = true
	})
	if queuedRan {
		t.Fatal("second query should be queued, not run inline")
	}

	var shedErr error
	prep().ExecuteAt(now, func(_ time.Duration, _ func() (*Cursor, error), err error) { shedErr = err })
	if shedErr == nil {
		t.Fatal("third query should be shed")
	}
	if !errors.Is(shedErr, resilience.ErrOverloaded) {
		t.Fatalf("shed error = %v, want ErrOverloaded", shedErr)
	}
	var oe *resilience.OverloadError
	if !errors.As(shedErr, &oe) || oe.Reason != "queue_full" || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v", oe)
	}
	if got := ev.eng.Obs.Get("serve.rejected.queue_full"); got != 1 {
		t.Fatalf("serve.rejected.queue_full = %d", got)
	}

	// Freeing the running query must grant the queued one.
	first.Close()
	if !queuedRan {
		t.Fatal("queued query did not run after release")
	}
	if running, mem, queued := ev.admState(); running != 0 || mem != 0 || queued != 0 {
		t.Fatalf("end state: running=%d mem=%d queued=%d", running, mem, queued)
	}
}

func TestQueueWaitShedding(t *testing.T) {
	ev := newEnv(t, Config{MaxConcurrent: 1, MaxQueue: 8, MaxQueueWait: 10 * time.Millisecond})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 4)
	sess := ev.open(t, adminP)
	defer sess.Close()

	p1, _ := sess.Parse("SELECT id FROM ds.t")
	var first *Cursor
	p1.ExecuteAt(0, func(_ time.Duration, run func() (*Cursor, error), err error) {
		if err != nil {
			t.Fatal(err)
		}
		first, err = run()
		if err != nil {
			t.Fatal(err)
		}
	})

	var waitErr error
	p2, _ := sess.Parse("SELECT id FROM ds.t")
	p2.ExecuteAt(0, func(_ time.Duration, _ func() (*Cursor, error), err error) { waitErr = err })
	if waitErr != nil {
		t.Fatalf("queued submission rejected eagerly: %v", waitErr)
	}

	// Release far past the ticket's wait bound: the stale head is shed
	// with a typed queue_wait error instead of being served.
	first.CloseAt(time.Second)
	var oe *resilience.OverloadError
	if waitErr == nil || !errors.As(waitErr, &oe) || oe.Reason != "queue_wait" {
		t.Fatalf("stale ticket error = %v", waitErr)
	}
	if got := ev.eng.Obs.Get("serve.rejected.queue_wait"); got != 1 {
		t.Fatalf("serve.rejected.queue_wait = %d", got)
	}
}

func TestEgressQuota(t *testing.T) {
	ev := newEnv(t, Config{
		Tenants: map[string]TenantConfig{string(adminP): {EgressQuota: 1}},
	})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 8)
	sess := ev.open(t, adminP)
	defer sess.Close()

	cur, err := sess.Query("SELECT id, v FROM ds.t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.All(); err != nil {
		t.Fatal(err)
	}
	// The first query streamed more than the 1-byte quota; the next
	// submission is rejected with a typed quota error.
	_, err = sess.Query("SELECT id FROM ds.t")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != string(adminP) || qe.Used == 0 {
		t.Fatalf("quota error = %+v", qe)
	}
	if got := ev.eng.Obs.Get("serve.rejected.quota"); got != 1 {
		t.Fatalf("serve.rejected.quota = %d", got)
	}
}

// TestOneTxnPerPrincipal checks BEGIN routing: one open transaction
// per principal across sessions, COMMIT/ROLLBACK outside one fails,
// and the full BEGIN → DML → read-your-writes → COMMIT flow works
// through the paged cursor.
func TestOneTxnPerPrincipal(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 2)

	s1 := ev.open(t, adminP)
	defer s1.Close()
	s2 := ev.open(t, adminP)
	defer s2.Close()

	if _, err := s1.Query("COMMIT"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("bare COMMIT: %v", err)
	}
	cur, err := s1.Query("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if !s1.TxnOpen() {
		t.Fatal("s1 txn not open")
	}
	if _, err := s2.Query("BEGIN"); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("second BEGIN for same principal: %v", err)
	}
	if got := ev.eng.Obs.Gauge("serve.txn.open").Get(); got != 1 {
		t.Fatalf("serve.txn.open = %d", got)
	}

	if cur, err = s1.Query("INSERT INTO ds.t VALUES (100, 1000)"); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	// Read-your-writes through the paged stream.
	cur, err = s1.Query("SELECT id FROM ds.t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 3 {
		t.Fatalf("in-txn rows = %d, want 3", got.N)
	}
	// The uncommitted row is invisible to other sessions.
	cur, err = s2.Query("SELECT id FROM ds.t")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := cur.All(); got.N != 2 {
		t.Fatalf("outside-txn rows = %d, want 2", got.N)
	}

	if cur, err = s1.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if s1.TxnOpen() {
		t.Fatal("txn still open after COMMIT")
	}
	if got := ev.eng.Obs.Gauge("serve.txn.open").Get(); got != 0 {
		t.Fatalf("serve.txn.open after commit = %d", got)
	}
	// The principal may BEGIN again, on any session.
	cur, err = s2.Query("BEGIN")
	if err != nil {
		t.Fatalf("BEGIN after commit: %v", err)
	}
	cur.Close()
	if cur, err = s2.Query("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	cur.Close()

	cur, err = s2.Query("SELECT id FROM ds.t")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := cur.All(); got.N != 3 {
		t.Fatalf("committed rows = %d, want 3", got.N)
	}
}

// TestSessionCloseRollsBackTxn checks the session teardown path: an
// abandoned session's transaction is rolled back and unregistered.
func TestSessionCloseRollsBackTxn(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 2)

	s1 := ev.open(t, adminP)
	cur, err := s1.Query("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if cur, err = s1.Query("INSERT INTO ds.t VALUES (5, 50)"); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Buffered write discarded; principal free to BEGIN elsewhere.
	s2 := ev.open(t, adminP)
	defer s2.Close()
	cur, err = s2.Query("SELECT id FROM ds.t")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := cur.All(); got.N != 2 {
		t.Fatalf("rows after rollback = %d, want 2", got.N)
	}
	cur, err = s2.Query("BEGIN")
	if err != nil {
		t.Fatalf("BEGIN after close: %v", err)
	}
	cur.Close()
}

func TestClosedSessionRejectsWork(t *testing.T) {
	ev := newEnv(t, Config{})
	ev.createTable(t, "t")
	sess := ev.open(t, adminP)
	sess.Close()
	if _, err := sess.Parse("SELECT 1 FROM ds.t"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("parse on closed session: %v", err)
	}
	if _, err := ev.srv.Open(adminP, ""); err != nil {
		t.Fatal(err)
	}
	ev.srv.Close()
	if _, err := ev.srv.Open(adminP, ""); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("open on closed server: %v", err)
	}
}

// TestCursorSurvivesArenaRecycle pins the session-boundary copy-out:
// pages pulled from an open cursor must keep their values while other
// queries on the same engine recycle the query arena. The engine runs
// with GCLean on (the default), so without the Detach at cursor
// construction this reads recycled slabs.
func TestCursorSurvivesArenaRecycle(t *testing.T) {
	ev := newEnv(t, Config{PageRows: 4})
	ev.createTable(t, "t")
	ev.seedRows(t, "t", 20)

	sess := ev.open(t, adminP)
	defer sess.Close()

	p, err := sess.Parse("SELECT id, v FROM ds.t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Prepare(); err != nil {
		t.Fatal(err)
	}
	cur, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}

	next := int64(0)
	drain := func(pages int) {
		for i := 0; i < pages; i++ {
			pg, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if pg == nil {
				return
			}
			for r := 0; r < pg.N; r++ {
				if id := pg.Column("id").Value(r).AsInt(); id != next {
					t.Fatalf("page row %d: id = %d, want %d (stale arena data)", r, id, next)
				}
				next++
			}
		}
	}

	drain(2)
	// Interleave queries that grab and scribble over the pooled arena.
	for q := 0; q < 5; q++ {
		if _, err := ev.eng.Query(engine.NewContext(adminP, fmt.Sprintf("mid-%d", q)),
			"SELECT v, COUNT(*) AS n FROM ds.t GROUP BY v ORDER BY v"); err != nil {
			t.Fatal(err)
		}
	}
	drain(100)
	cur.Close()
	if next != 20 {
		t.Fatalf("drained %d rows, want 20", next)
	}
}
