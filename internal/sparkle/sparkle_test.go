package sparkle

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

const (
	adminP = security.Principal("admin@corp")
	userP  = security.Principal("spark-user@corp")
)

type env struct {
	clock *sim.Clock
	store *objstore.Store
	srv   *storageapi.Server
	auth  *security.Authority
	cred  objstore.Credential
	user  objstore.Credential
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	user := objstore.Credential{Principal: string(userP)}
	if err := store.CreateBucket(cred, "lake"); err != nil {
		t.Fatal(err)
	}
	store.Grant(cred, "lake", string(userP), objstore.PermRead)
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	srv := storageapi.NewServer(cat, auth, meta, log, clock, map[string]*objstore.Store{"gcp": store})
	srv.ManagedCred = cred
	return &env{clock: clock, store: store, srv: srv, auth: auth, cred: cred, user: user}
}

func factSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "item_id", Type: vector.Int64},
		vector.Field{Name: "qty", Type: vector.Int64},
	)
}

// loadFact writes `files` fact files with item_ids ascending, and
// registers them as a BigLake table.
func (ev *env) loadFact(t *testing.T, files, rowsPerFile int) {
	t.Helper()
	next := int64(0)
	for f := 0; f < files; f++ {
		bl := vector.NewBuilder(factSchema())
		for r := 0; r < rowsPerFile; r++ {
			bl.Append(vector.IntValue(next), vector.IntValue(next%7))
			next++
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ev.store.Put(ev.cred, "lake", fmt.Sprintf("fact/part-%03d.blk", f), file, "")
	}
	ev.srv.Catalog.CreateTable(catalog.Table{
		Dataset: "ds", Name: "fact", Type: catalog.BigLake, Schema: factSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "fact/", Connection: "conn", MetadataCaching: true,
	})
	ev.auth.GrantTable(adminP, "ds.fact", userP, security.RoleViewer)
}

func dimSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "tier", Type: vector.String},
	)
}

func (ev *env) loadDim(t *testing.T, n, goldCount int) {
	t.Helper()
	bl := vector.NewBuilder(dimSchema())
	for i := 0; i < n; i++ {
		tier := "basic"
		if i < goldCount {
			tier = "gold"
		}
		bl.Append(vector.IntValue(int64(i)), vector.StringValue(tier))
	}
	file, _ := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	ev.store.Put(ev.cred, "lake", "dim/part-000.blk", file, "")
	ev.srv.Catalog.CreateTable(catalog.Table{
		Dataset: "ds", Name: "dim", Type: catalog.BigLake, Schema: dimSchema(),
		Cloud: "gcp", Bucket: "lake", Prefix: "dim/", Connection: "conn", MetadataCaching: true,
	})
	ev.auth.GrantTable(adminP, "ds.dim", userP, security.RoleViewer)
}

func TestDirectScan(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 4, 25)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 100 {
		t.Fatalf("rows = %d", got.N)
	}
	if sess.Obs.Get("sparkle.direct_list_calls") != 1 || sess.Obs.Get("sparkle.direct_footer_reads") != 4 {
		t.Fatalf("counters = %v", sess.Obs.Snapshot().Counters)
	}
}

func TestDirectScanFilterSkipsFiles(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 10, 10)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").
		Filter(colfmt.Predicate{Column: "item_id", Op: vector.EQ, Value: vector.IntValue(55)}).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 1 {
		t.Fatalf("rows = %d", got.N)
	}
	// Footer stats pruned 9 of 10 data reads, so bytes read must be
	// roughly one file's worth.
	totalBytes := sess.Obs.Get("sparkle.direct_bytes_read")
	if totalBytes == 0 {
		t.Fatal("no bytes metered")
	}
}

func TestReadAPIScanMatchesDirect(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 3, 20)
	sess := NewSession(ev.clock, Options{})
	direct, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").
		Filter(colfmt.Predicate{Column: "qty", Op: vector.EQ, Value: vector.IntValue(3)}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	api, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").
		Filter(colfmt.Predicate{Column: "qty", Op: vector.EQ, Value: vector.IntValue(3)}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if direct.N != api.N {
		t.Fatalf("direct %d rows, read api %d", direct.N, api.N)
	}
}

func TestReadAPIEnforcesGovernanceDirectDoesNot(t *testing.T) {
	// §3.2's contrast: the Read API masks; a direct file read exposes
	// raw values to anyone with bucket access.
	ev := newEnv(t)
	ev.loadFact(t, 1, 10)
	ev.auth.SetColumnPolicy(adminP, "ds.fact", security.ColumnPolicy{
		Column: "qty", Allowed: map[security.Principal]bool{adminP: true}, Mask: vector.MaskHash,
	})
	sess := NewSession(ev.clock, Options{})
	api, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(api.Column("qty").Value(0).S, "hash_") {
		t.Fatal("read api should mask qty")
	}
	direct, err := sess.ReadFiles(ev.store, ev.user, "lake", "fact/").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if direct.Column("qty").Value(0).AsInt() != 0 && direct.Column("qty").Value(0).Type != vector.Int64 {
		t.Fatal("direct read should see raw data")
	}
}

func TestProjection(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 2, 10)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").Select("qty").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Len() != 1 || got.Schema.Fields[0].Name != "qty" {
		t.Fatalf("schema = %v", got.Schema)
	}
}

func TestJoinCorrectness(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 2, 50) // item_ids 0..99
	ev.loadDim(t, 10, 3)  // dim ids 0..9, 3 gold
	for _, stats := range []bool{false, true} {
		sess := NewSession(ev.clock, Options{UseSessionStats: stats, EnableDPP: stats})
		fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
		dim := sess.ReadBigLake(ev.srv, userP, "ds.dim").
			Filter(colfmt.Predicate{Column: "tier", Op: vector.EQ, Value: vector.StringValue("gold")})
		got, err := fact.Join(dim, "item_id", "id").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got.N != 3 {
			t.Fatalf("stats=%v join rows = %d, want 3", stats, got.N)
		}
		if got.Schema.Index("tier") < 0 || got.Schema.Index("qty") < 0 {
			t.Fatalf("schema = %v", got.Schema)
		}
	}
}

func TestDPPPrunesFactScan(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 10, 100) // 10 files, ids 0..999
	ev.loadDim(t, 1000, 5)  // only ids 0..4 are gold

	run := func(opts Options) *obs.Registry {
		sess := NewSession(ev.clock, opts)
		fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
		dim := sess.ReadBigLake(ev.srv, userP, "ds.dim").
			Filter(colfmt.Predicate{Column: "tier", Op: vector.EQ, Value: vector.StringValue("gold")})
		got, err := fact.Join(dim, "item_id", "id").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got.N != 5 {
			t.Fatalf("join rows = %d", got.N)
		}
		return sess.Obs
	}
	blind := run(Options{})
	smart := run(Options{UseSessionStats: true, EnableDPP: true})
	if smart.Get("sparkle.dpp_applied") == 0 {
		t.Fatal("DPP not applied")
	}
	// With DPP the fact side ships far fewer payload bytes.
	if smart.Get("sparkle.readapi_bytes")*2 >= blind.Get("sparkle.readapi_bytes") {
		t.Fatalf("DPP bytes %d should be <half of blind %d",
			smart.Get("sparkle.readapi_bytes"), blind.Get("sparkle.readapi_bytes"))
	}
}

func TestStatsSpeedUpJoinWallClock(t *testing.T) {
	// The E3 shape at unit scale: session statistics (join order +
	// DPP) cut simulated wall time.
	ev := newEnv(t)
	ev.loadFact(t, 12, 200)
	ev.loadDim(t, 2400, 4)

	measure := func(opts Options) sim.Clock {
		_ = opts
		return sim.Clock{}
	}
	_ = measure

	runTime := func(opts Options) (elapsed int64) {
		sess := NewSession(ev.clock, opts)
		before := ev.clock.Now()
		fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
		dim := sess.ReadBigLake(ev.srv, userP, "ds.dim").
			Filter(colfmt.Predicate{Column: "tier", Op: vector.EQ, Value: vector.StringValue("gold")})
		if _, err := fact.Join(dim, "item_id", "id").Collect(); err != nil {
			t.Fatal(err)
		}
		return int64(ev.clock.Now() - before)
	}
	blind := runTime(Options{})
	smart := runTime(Options{UseSessionStats: true, EnableDPP: true})
	if smart >= blind {
		t.Fatalf("stats-on time %d should beat stats-off %d", smart, blind)
	}
}

func TestGroupByAgg(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 21) // qty = item_id % 7
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").
		GroupBy("qty").
		Agg(AggSpec{Kind: vector.AggCount, Column: "item_id", As: "n"},
			AggSpec{Kind: vector.AggMax, Column: "item_id", As: "max_id"}).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 7 {
		t.Fatalf("groups = %d", got.N)
	}
	for i := 0; i < got.N; i++ {
		if got.Column("n").Value(i).AsInt() != 3 {
			t.Fatalf("group %v", got.Row(i))
		}
	}
}

func TestGlobalAgg(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 10)
	sess := NewSession(ev.clock, Options{})
	got, err := sess.ReadBigLake(ev.srv, userP, "ds.fact").
		GroupBy().
		Agg(AggSpec{Kind: vector.AggSum, Column: "item_id", As: "total"}).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 1 || got.Column("total").Value(0).AsInt() != 45 {
		t.Fatalf("total = %v", got.Row(0))
	}
}

func TestPlanErrors(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 5)
	sess := NewSession(ev.clock, Options{})
	if _, err := (&Frame{sess: sess}).Collect(); !errors.Is(err, ErrNoSource) {
		t.Fatalf("err = %v", err)
	}
	fact := sess.ReadBigLake(ev.srv, userP, "ds.fact")
	if _, err := fact.Join(fact, "ghost", "item_id").Collect(); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad join key: %v", err)
	}
	if _, err := fact.GroupBy("ghost").Agg(AggSpec{Kind: vector.AggCount, Column: "item_id", As: "n"}).Collect(); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad group key: %v", err)
	}
	if _, err := fact.GroupBy("qty").Agg(AggSpec{Kind: vector.AggCount, Column: "ghost", As: "n"}).Collect(); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad agg column: %v", err)
	}
}

func TestReadAPIDeniedUser(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 5)
	sess := NewSession(ev.clock, Options{})
	_, err := sess.ReadBigLake(ev.srv, "evil@x", "ds.fact").Collect()
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinDuplicateColumnNames(t *testing.T) {
	ev := newEnv(t)
	ev.loadFact(t, 1, 5)
	sess := NewSession(ev.clock, Options{})
	f := sess.ReadBigLake(ev.srv, userP, "ds.fact")
	got, err := f.Join(f, "item_id", "item_id").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Index("item_id") < 0 || got.Schema.Index("item_id_r") < 0 {
		t.Fatalf("schema = %v", got.Schema)
	}
}
