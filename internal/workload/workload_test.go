package workload

import (
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sim"
)

const adminP = security.Principal("admin@corp")

func newEnv(t *testing.T) (*Env, *engine.Engine) {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	if err := store.CreateBucket(cred, "bench"); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if err := cat.CreateDataset(catalog.Dataset{Name: "bench", Region: "gcp-us", Cloud: "gcp"}); err != nil {
		t.Fatal(err)
	}
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	log := bigmeta.NewLog(clock)
	meta := bigmeta.NewCache(clock)
	env := &Env{
		Catalog: cat, Auth: auth, Store: store, Log: log, Clock: clock,
		Cred: cred, Connection: "conn", Bucket: "bench", Cloud: "gcp",
		Dataset: "bench", Admin: adminP,
	}
	eng := engine.New(cat, auth, meta, log, clock, map[string]*objstore.Store{"gcp": store}, engine.DefaultOptions())
	eng.ManagedCred = cred
	return env, eng
}

func TestLoadTPCDSAndRunAllQueries(t *testing.T) {
	env, eng := newEnv(t)
	cfg := DefaultTPCDS(1)
	if err := LoadTPCDS(env, cfg); err != nil {
		t.Fatal(err)
	}
	// Fact files on the bucket, one prefix per date partition.
	if n := env.Store.ObjectCount("bench", "tpcds/store_sales/"); n != cfg.Dates*cfg.FilesPerDate {
		t.Fatalf("fact files = %d", n)
	}
	for _, q := range TPCDSQueries("bench", cfg) {
		res, err := eng.Query(engine.NewContext(adminP, q.ID), q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if res.Batch.N == 0 && q.Kind != "prunable" {
			t.Fatalf("%s returned no rows", q.ID)
		}
	}
}

func TestTPCDSPrunableQueriesPrune(t *testing.T) {
	env, eng := newEnv(t)
	cfg := DefaultTPCDS(1)
	if err := LoadTPCDS(env, cfg); err != nil {
		t.Fatal(err)
	}
	q := TPCDSQueries("bench", cfg)[0] // q01: single-date
	res, err := eng.Query(engine.NewContext(adminP, "q"), q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilesPruned == 0 {
		t.Fatal("q01 should prune partitions")
	}
	if res.Stats.FilesScanned != int64(cfg.FilesPerDate) {
		t.Fatalf("scanned %d files, want %d", res.Stats.FilesScanned, cfg.FilesPerDate)
	}
	// Row counts are exact: one date partition's worth.
	if got := res.Batch.Column("cnt").Value(0).AsInt(); got != int64(cfg.FilesPerDate*cfg.RowsPerFile) {
		t.Fatalf("cnt = %d", got)
	}
}

func TestTPCDSDeterministic(t *testing.T) {
	env1, eng1 := newEnv(t)
	env2, eng2 := newEnv(t)
	cfg := DefaultTPCDS(1)
	if err := LoadTPCDS(env1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCDS(env2, cfg); err != nil {
		t.Fatal(err)
	}
	q := TPCDSQueries("bench", cfg)[7] // q08 min/max
	r1, err := eng1.Query(engine.NewContext(adminP, "q"), q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng2.Query(engine.NewContext(adminP, "q"), q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Batch.Row(0)[0].AsFloat() != r2.Batch.Row(0)[0].AsFloat() {
		t.Fatal("generator is not deterministic")
	}
}

func TestLoadTPCHAndRunAllQueries(t *testing.T) {
	env, eng := newEnv(t)
	cfg := DefaultTPCH(1)
	if err := LoadTPCH(env, cfg); err != nil {
		t.Fatal(err)
	}
	for _, q := range TPCHQueries("bench") {
		res, err := eng.Query(engine.NewContext(adminP, q.ID), q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if res.Batch.N == 0 {
			t.Fatalf("%s returned no rows", q.ID)
		}
	}
}

func TestTPCHRowCounts(t *testing.T) {
	env, eng := newEnv(t)
	cfg := DefaultTPCH(1)
	if err := LoadTPCH(env, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(engine.NewContext(adminP, "q"), "SELECT COUNT(*) AS n FROM bench.lineitem")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.LineFiles * cfg.LinesPerFile)
	if res.Batch.Column("n").Value(0).AsInt() != want {
		t.Fatalf("lineitem rows = %v, want %d", res.Batch.Row(0), want)
	}
	res, _ = eng.Query(engine.NewContext(adminP, "q"), "SELECT COUNT(*) AS n FROM bench.orders")
	if res.Batch.Column("n").Value(0).AsInt() != int64(cfg.Orders) {
		t.Fatalf("orders rows = %v", res.Batch.Row(0))
	}
}

func TestScaleGrowsVolume(t *testing.T) {
	c1, c2 := DefaultTPCDS(1), DefaultTPCDS(3)
	if c2.FilesPerDate <= c1.FilesPerDate {
		t.Fatal("scale should grow fact volume")
	}
	if DefaultTPCDS(0).FilesPerDate != c1.FilesPerDate {
		t.Fatal("scale 0 should clamp to 1")
	}
	if DefaultTPCH(2).LineFiles <= DefaultTPCH(1).LineFiles {
		t.Fatal("tpch scale")
	}
}

func TestQueryKindsCovered(t *testing.T) {
	kinds := map[string]int{}
	for _, q := range TPCDSQueries("d", DefaultTPCDS(1)) {
		kinds[q.Kind]++
	}
	for _, want := range []string{"prunable", "star-join", "scan", "aggregate"} {
		if kinds[want] == 0 {
			t.Fatalf("no %s queries in the set", want)
		}
	}
}
