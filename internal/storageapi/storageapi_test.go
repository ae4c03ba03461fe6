package storageapi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const (
	adminP = security.Principal("admin@corp")
	aliceP = security.Principal("alice@corp")
	evilP  = security.Principal("mallory@evil")
)

type env struct {
	clock *sim.Clock
	store *objstore.Store
	cat   *catalog.Catalog
	auth  *security.Authority
	meta  *bigmeta.Cache
	log   *bigmeta.Log
	srv   *Server
	cred  objstore.Credential
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa-lake@corp"}
	if err := store.CreateBucket(cred, "lake"); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	srv := NewServer(cat, auth, meta, log, clock, map[string]*objstore.Store{"gcp": store})
	srv.ManagedCred = cred
	return &env{clock: clock, store: store, cat: cat, auth: auth, meta: meta, log: log, srv: srv, cred: cred}
}

func salesSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "region", Type: vector.String},
		vector.Field{Name: "email", Type: vector.String},
		vector.Field{Name: "amount", Type: vector.Int64},
	)
}

func (ev *env) createSales(t *testing.T, files, rowsPerFile int) {
	t.Helper()
	next := int64(0)
	regions := []string{"us", "eu"}
	for f := 0; f < files; f++ {
		bl := vector.NewBuilder(salesSchema())
		for r := 0; r < rowsPerFile; r++ {
			bl.Append(
				vector.IntValue(next),
				vector.StringValue(regions[int(next)%2]),
				vector.StringValue(fmt.Sprintf("u%d@x.com", next)),
				vector.IntValue(next*10),
			)
			next++
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ev.store.Put(ev.cred, "lake", fmt.Sprintf("sales/part-%02d.blk", f), file, "")
	}
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "sales", Type: catalog.BigLake, Schema: salesSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "sales/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	ev.auth.GrantTable(adminP, "ds.sales", aliceP, security.RoleViewer)
}

func TestCreateReadSessionAndReadAll(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 6, 50)
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, SnapshotVersion: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Streams) == 0 || sess.EstimatedRows != 300 {
		t.Fatalf("session = %+v", sess)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 300 {
		t.Fatalf("rows = %d", got.N)
	}
}

func TestReadDeniedWithoutRole(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 1, 10)
	_, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: evilP})
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestProjectionAndPushdown(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 25)
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP,
		Columns:    []string{"id", "amount"},
		Predicates: []colfmt.Predicate{{Column: "id", Op: vector.GE, Value: vector.IntValue(90)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 10 || got.Schema.Len() != 2 {
		t.Fatalf("rows = %d schema = %v", got.N, got.Schema)
	}
	// Pruning: only the last file (ids 75..99) survives.
	if len(sess.Streams) != 1 {
		t.Fatalf("streams = %d, want 1 (one unpruned file)", len(sess.Streams))
	}
}

func TestGovernanceInsideBoundary(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 2, 10)
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
	})
	ev.auth.AddRowPolicy(adminP, "ds.sales", security.RowPolicy{
		Name: "us", Grantees: map[security.Principal]bool{aliceP: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})

	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: aliceP})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 10 { // half the 20 rows are us
		t.Fatalf("alice rows = %d, want 10", got.N)
	}
	for i := 0; i < got.N; i++ {
		row := got.Row(i)
		if row[1].S != "us" {
			t.Fatal("row policy leaked through the Read API")
		}
		if !strings.HasPrefix(row[2].S, "hash_") {
			t.Fatalf("email not masked: %v", row[2])
		}
	}
}

func TestDeniedColumnFailsSession(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 1, 5)
	ev.auth.SetColumnPolicy(adminP, "ds.sales", security.ColumnPolicy{
		Column: "email", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskNone,
	})
	_, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: aliceP, Columns: []string{"email"},
	})
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	// Unprotected columns remain readable.
	if _, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: aliceP, Columns: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHostileClientCannotBypassGovernance(t *testing.T) {
	// E12's core property: nothing a client passes in the request can
	// widen what comes back. A malicious engine asking for everything
	// still gets filtered, masked rows only.
	ev := newEnv(t)
	ev.createSales(t, 2, 10)
	ev.auth.AddRowPolicy(adminP, "ds.sales", security.RowPolicy{
		Name: "none", Grantees: map[security.Principal]bool{}, // alice granted by nothing
		Filter: []colfmt.Predicate{{Column: "id", Op: vector.GE, Value: vector.IntValue(0)}},
	})
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: aliceP, MaxStreams: 100,
		Predicates: []colfmt.Predicate{{Column: "id", Op: vector.GE, Value: vector.IntValue(0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 0 {
		t.Fatalf("hostile client read %d rows through row policies", got.N)
	}
}

func TestSessionReuse(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 3, 10)
	req := ReadSessionRequest{Table: "ds.sales", Principal: adminP}
	s1, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ev.srv.CreateReadSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Reused || s2.ID != s1.ID {
		t.Fatalf("expected reuse: %+v", s2)
	}
	// A different predicate set gets a fresh session.
	req.Predicates = []colfmt.Predicate{{Column: "id", Op: vector.GT, Value: vector.IntValue(5)}}
	s3, _ := ev.srv.CreateReadSession(req)
	if s3.Reused {
		t.Fatal("different request must not reuse")
	}
	// TTL expiry forces a new session.
	ev.clock.Advance(ev.srv.SessionTTL * 2)
	s4, _ := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP})
	if s4.Reused {
		t.Fatal("expired cache entry must not reuse")
	}
}

func TestSessionStatsForPlanner(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 25)
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Stats.Rows != 100 || sess.Stats.Files != 4 {
		t.Fatalf("stats = %+v", sess.Stats)
	}
	idStats := sess.Stats.ColumnStats["id"]
	if idStats.Min.ToValue().AsInt() != 0 || idStats.Max.ToValue().AsInt() != 99 {
		t.Fatalf("id stats = %+v", idStats)
	}
}

func TestStreamsArePartitioned(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 10, 10)
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, MaxStreams: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Streams) != 4 {
		t.Fatalf("streams = %d", len(sess.Streams))
	}
	total := 0
	for _, stream := range sess.Streams {
		for {
			payload, err := ev.srv.ReadRows(sess.ID, stream)
			if errors.Is(err, ErrEndOfStream) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			b, err := vector.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			total += b.N
		}
	}
	if total != 100 {
		t.Fatalf("total rows across streams = %d", total)
	}
}

func TestSplitStream(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 8, 5)
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, MaxStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	newStream, err := ev.srv.SplitStream(sess.ID, sess.Streams[0])
	if err != nil {
		t.Fatal(err)
	}
	count := func(stream string) int {
		n := 0
		for {
			payload, err := ev.srv.ReadRows(sess.ID, stream)
			if errors.Is(err, ErrEndOfStream) {
				return n
			}
			if err != nil {
				t.Fatal(err)
			}
			b, _ := vector.DecodeBatch(payload)
			n += b.N
		}
	}
	a, b := count(sess.Streams[0]), count(newStream)
	if a+b != 40 || a == 0 || b == 0 {
		t.Fatalf("split rows = %d + %d", a, b)
	}
	// Empty stream cannot split again.
	if _, err := ev.srv.SplitStream(sess.ID, sess.Streams[0]); err == nil {
		t.Fatal("exhausted stream should not split")
	}
}

func TestUnknownSessionAndStream(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 1, 5)
	if _, err := ev.srv.ReadRows("ghost", "s"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
	sess, _ := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.sales", Principal: adminP})
	if _, err := ev.srv.ReadRows(sess.ID, "ghost"); !errors.Is(err, ErrNoStream) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeepEncodingsShrinksPayload(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 1, 2000) // low-cardinality region column
	read := func(keep bool) int {
		sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
			Table: "ds.sales", Principal: adminP, Columns: []string{"region"}, KeepEncodings: keep,
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, stream := range sess.Streams {
			for {
				payload, err := ev.srv.ReadRows(sess.ID, stream)
				if errors.Is(err, ErrEndOfStream) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				total += len(payload)
			}
		}
		return total
	}
	encoded := read(true)
	plain := read(false)
	if encoded*2 >= plain {
		t.Fatalf("encoded payload %d should be <half of plain %d", encoded, plain)
	}
}

func TestRowOrientedMatchesVectorized(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 3, 40)
	preds := []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("eu")}}
	run := func(rowOriented bool) *vector.Batch {
		sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
			Table: "ds.sales", Principal: adminP, Predicates: preds, RowOriented: rowOriented,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ev.srv.ReadAll(sess)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	v, r := run(false), run(true)
	if v.N != r.N || v.N != 60 {
		t.Fatalf("vectorized %d rows, row-oriented %d", v.N, r.N)
	}
}

func TestAggregatePushdown(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 25)
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP,
		Aggregates: []AggregateRequest{
			{Column: "amount", Kind: vector.AggSum},
			{Column: "id", Kind: vector.AggMax},
			{Column: "id", Kind: vector.AggCount},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 1 {
		t.Fatalf("aggregate rows = %d", got.N)
	}
	row := got.Row(0)
	wantSum := int64(0)
	for i := int64(0); i < 100; i++ {
		wantSum += i * 10
	}
	if row[0].AsInt() != wantSum || row[1].AsInt() != 99 || row[2].AsInt() != 100 {
		t.Fatalf("aggregates = %v", row)
	}
}

func TestAggregatePushdownPayloadTiny(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 2, 500)
	sessAgg, _ := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP,
		Aggregates: []AggregateRequest{{Column: "amount", Kind: vector.AggSum}},
	})
	payload, err := ev.srv.ReadRows(sessAgg.ID, sessAgg.Streams[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > 200 {
		t.Fatalf("aggregate payload = %d bytes, should be tiny", len(payload))
	}
}

// --- Write API ---

func (ev *env) createManaged(t *testing.T) {
	t.Helper()
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "events", Type: catalog.Managed, Schema: salesSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "blmt/events/", Connection: "conn",
	}); err != nil {
		t.Fatal(err)
	}
	ev.auth.GrantTable(adminP, "ds.events", aliceP, security.RoleEditor)
}

func rowsBatch(start, n int) *vector.Batch {
	bl := vector.NewBuilder(salesSchema())
	for i := 0; i < n; i++ {
		id := int64(start + i)
		bl.Append(vector.IntValue(id), vector.StringValue("us"),
			vector.StringValue(fmt.Sprintf("u%d@x.com", id)), vector.IntValue(id))
	}
	return bl.Build()
}

func TestCommittedStreamVisibleImmediately(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, err := ev.srv.CreateWriteStream(string(aliceP), "ds.events", CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.srv.AppendRows(id, -1, rowsBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 1 || files[0].RowCount != 10 {
		t.Fatalf("files = %+v", files)
	}
	// Readable through the Read API.
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{Table: "ds.events", Principal: adminP, SnapshotVersion: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ev.srv.ReadAll(sess)
	if got.N != 10 {
		t.Fatalf("read back %d rows", got.N)
	}
}

func TestExactlyOnceOffsets(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
	off, err := ev.srv.AppendRows(id, 0, rowsBatch(0, 5))
	if err != nil || off != 5 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	// Retry of the same offset is detected (client treats as success).
	if _, err := ev.srv.AppendRows(id, 0, rowsBatch(0, 5)); !errors.Is(err, ErrOffsetExists) {
		t.Fatalf("dup append: %v", err)
	}
	// Gap is rejected.
	if _, err := ev.srv.AppendRows(id, 99, rowsBatch(0, 5)); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("gap append: %v", err)
	}
	// Correct next offset works.
	if off, err := ev.srv.AppendRows(id, 5, rowsBatch(5, 5)); err != nil || off != 10 {
		t.Fatalf("next append: off=%d err=%v", off, err)
	}
}

func TestPendingStreamInvisibleUntilCommit(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
	ev.srv.AppendRows(id, -1, rowsBatch(0, 7))
	if files, _, _ := ev.log.Snapshot("ds.events", -1); len(files) != 0 {
		t.Fatal("pending rows leaked before commit")
	}
	if err := ev.srv.BatchCommitStreams([]string{id}); err == nil {
		t.Fatal("commit before finalize should fail")
	}
	if _, err := ev.srv.FinalizeStream(id); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.srv.AppendRows(id, -1, rowsBatch(7, 1)); !errors.Is(err, ErrFinalized) {
		t.Fatalf("append after finalize: %v", err)
	}
	if err := ev.srv.BatchCommitStreams([]string{id}); err != nil {
		t.Fatal(err)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 1 || files[0].RowCount != 7 {
		t.Fatalf("files = %+v", files)
	}
	// Double commit rejected.
	if err := ev.srv.BatchCommitStreams([]string{id}); err == nil {
		t.Fatal("double commit should fail")
	}
}

func TestCrossStreamAtomicCommit(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	var ids []string
	for i := 0; i < 3; i++ {
		id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
		ev.srv.AppendRows(id, -1, rowsBatch(i*10, 10))
		ev.srv.FinalizeStream(id)
		ids = append(ids, id)
	}
	verBefore := ev.log.Version()
	if err := ev.srv.BatchCommitStreams(ids); err != nil {
		t.Fatal(err)
	}
	if ev.log.Version() != verBefore+1 {
		t.Fatal("cross-stream commit must be one atomic log commit")
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 3 {
		t.Fatalf("files = %d", len(files))
	}
}

func TestWriteRequiresEditor(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	if _, err := ev.srv.CreateWriteStream(string(evilP), "ds.events", CommittedMode); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteStreamRequiresManagedTable(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 1, 5)
	if _, err := ev.srv.CreateWriteStream(string(adminP), "ds.sales", CommittedMode); err == nil {
		t.Fatal("biglake (non-managed) tables should reject write streams")
	}
}

func TestSnapshotReadsArePointInTime(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", CommittedMode)
	ev.srv.AppendRows(id, -1, rowsBatch(0, 5))
	v1 := ev.log.Version()
	id2, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", CommittedMode)
	ev.srv.AppendRows(id2, -1, rowsBatch(5, 5))

	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.events", Principal: adminP, SnapshotVersion: v1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ev.srv.ReadAll(sess)
	if got.N != 5 {
		t.Fatalf("snapshot read %d rows, want 5", got.N)
	}
}

func BenchmarkReadRowsVectorizedVsRowOriented(b *testing.B) {
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa"}
	store.CreateBucket(cred, "lake")
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("s", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	srv := NewServer(cat, auth, meta, log, clock, map[string]*objstore.Store{"gcp": store})
	srv.ManagedCred = cred

	bl := vector.NewBuilder(salesSchema())
	for i := 0; i < 30000; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.StringValue([]string{"us", "eu", "jp"}[i%3]),
			vector.StringValue("user@x.com"), vector.IntValue(int64(i%97)))
	}
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{RowGroupRows: 4096})
	store.Put(cred, "lake", "sales/f.blk", file, "")
	cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "sales", Type: catalog.BigLake, Schema: salesSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "sales/", Connection: "conn", MetadataCaching: true,
	})

	for _, mode := range []struct {
		name        string
		rowOriented bool
	}{{"vectorized", false}, {"row_oriented", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				srv.SessionTTL = 0 // force fresh sessions
				sess, err := srv.CreateReadSession(ReadSessionRequest{
					Table: "ds.sales", Principal: adminP, RowOriented: mode.rowOriented,
					Predicates: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("eu")}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := srv.ReadAll(sess); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestReadPartitionedTableWithPartitionPredicate(t *testing.T) {
	// Hive-partitioned BigLake table: the partition column exists in
	// the declared schema but not in the data files. A partition
	// predicate must prune files, not break the file scan.
	ev := newEnv(t)
	rowSchema := vector.NewSchema(vector.Field{Name: "v", Type: vector.Int64})
	for day := 1; day <= 3; day++ {
		bl := vector.NewBuilder(rowSchema)
		bl.Append(vector.IntValue(int64(day * 100)))
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ev.store.Put(ev.cred, "lake", fmt.Sprintf("pt/day=%d/f.blk", day), file, "")
	}
	fullSchema := vector.NewSchema(
		vector.Field{Name: "v", Type: vector.Int64},
		vector.Field{Name: "day", Type: vector.Int64},
	)
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "pt", Type: catalog.BigLake, Schema: fullSchema,
		Cloud: "gcp", Bucket: "lake", Prefix: "pt/", Connection: "conn",
		PartitionColumn: "day", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.pt", Principal: adminP, Columns: []string{"v"},
		Predicates: []colfmt.Predicate{{Column: "day", Op: vector.GE, Value: vector.IntValue(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 2 {
		t.Fatalf("rows = %d, want 2 (partitions pruned to day>=2)", got.N)
	}
}

func TestBufferedStreamFlushRows(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, err := ev.srv.CreateWriteStream(string(aliceP), "ds.events", BufferedMode)
	if err != nil {
		t.Fatal(err)
	}
	ev.srv.AppendRows(id, -1, rowsBatch(0, 10))
	// Nothing visible before the flush point advances.
	if files, _, _ := ev.log.Snapshot("ds.events", -1); len(files) != 0 {
		t.Fatal("buffered rows leaked before flush")
	}
	off, err := ev.srv.FlushRows(id, 4)
	if err != nil || off != 4 {
		t.Fatalf("flush: off=%d err=%v", off, err)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 1 || files[0].RowCount != 4 {
		t.Fatalf("after flush: %+v", files)
	}
	// Re-flushing at or behind the flush point is a no-op.
	if off, err := ev.srv.FlushRows(id, 4); err != nil || off != 4 {
		t.Fatalf("idempotent flush: off=%d err=%v", off, err)
	}
	// Flushing beyond appended rows is rejected.
	if _, err := ev.srv.FlushRows(id, 99); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("overflush: %v", err)
	}
	// Later appends keep buffering; a second flush exposes them.
	ev.srv.AppendRows(id, -1, rowsBatch(10, 5))
	if off, err := ev.srv.FlushRows(id, 15); err != nil || off != 15 {
		t.Fatalf("second flush: off=%d err=%v", off, err)
	}
	var total int64
	files, _, _ = ev.log.Snapshot("ds.events", -1)
	for _, f := range files {
		total += f.RowCount
	}
	if total != 15 {
		t.Fatalf("visible rows = %d, want 15", total)
	}
}

func TestFlushRowsRequiresBufferedMode(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
	if _, err := ev.srv.FlushRows(id, 1); err == nil {
		t.Fatal("pending stream should reject FlushRows")
	}
	if _, err := ev.srv.FlushRows("ghost", 1); !errors.Is(err, ErrNoStream) {
		t.Fatalf("missing stream: %v", err)
	}
}
