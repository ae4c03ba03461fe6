package loadtest

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/sim"
	"biglake/internal/txn"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

const adminP = security.Principal("admin@corp")

// world builds a complete stack with one managed table ds.t (8 rows)
// and grants every tenant principal editor access.
func world(t *testing.T, cfg serve.Config, tenants int, lcfg Config) *serve.Server {
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
	if err := cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "t", Type: catalog.Managed,
		Schema: vector.NewSchema(
			vector.Field{Name: "id", Type: vector.Int64},
			vector.Field{Name: "v", Type: vector.Int64},
		),
		Cloud: "gcp", Bucket: "data-bucket", Prefix: "blmt/ds/t/", Connection: "conn",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(engine.NewContext(adminP, "seed"),
		"INSERT INTO ds.t VALUES (0,0),(1,10),(2,20),(3,30),(4,40),(5,50),(6,60),(7,70)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		if err := auth.GrantTable(adminP, "ds.t", lcfg.Principal(i), security.RoleEditor); err != nil {
			t.Fatal(err)
		}
	}
	return serve.New(eng, txn.NewManager(eng, j), cfg)
}

// mixedGen is a small OLAP/point/DML mix over ds.t.
func mixedGen(rng *sim.RNG, tenant, seq int) Query {
	switch rng.Intn(10) {
	case 0:
		return Query{Kind: "dml", SQL: fmt.Sprintf("INSERT INTO ds.t VALUES (%d, %d)", 1000+tenant*1000+seq, seq)}
	case 1, 2, 3:
		return Query{Kind: "olap", SQL: "SELECT v, COUNT(*) AS n FROM ds.t GROUP BY v ORDER BY v"}
	default:
		return Query{Kind: "point", SQL: fmt.Sprintf("SELECT id, v FROM ds.t WHERE id = %d", rng.Intn(8))}
	}
}

func TestLoadRunCompletes(t *testing.T) {
	lcfg := Config{
		Seed: 7, Tenants: 8, QueriesPerTenant: 6,
		Interarrival: 200 * time.Millisecond, Gen: mixedGen,
	}
	srv := world(t, serve.Config{MaxConcurrent: 4, PageRows: 3}, lcfg.Tenants, lcfg)
	res, err := Run(srv, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 48 {
		t.Fatalf("offered = %d", res.Offered)
	}
	if res.Completed+res.Failed+totalRejected(res) != res.Offered {
		t.Fatalf("accounting mismatch: %+v", res)
	}
	if res.Completed == 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("degenerate latency stats: %+v", res)
	}
	if res.EgressBytes == 0 {
		t.Fatal("no egress recorded")
	}
	if res.ByKind["point"] == 0 || res.ByKind["olap"] == 0 {
		t.Fatalf("mix missing classes: %v", res.ByKind)
	}
}

// TestLoadRunDeterministic runs the same seed against two identically-
// built worlds and requires bit-identical results — the property the
// soak gate in CI relies on.
func TestLoadRunDeterministic(t *testing.T) {
	lcfg := Config{
		Seed: 99, Tenants: 12, QueriesPerTenant: 5,
		Interarrival: 30 * time.Millisecond, Gen: mixedGen,
	}
	scfg := serve.Config{MaxConcurrent: 2, MaxQueue: 6, MaxQueueWait: 500 * time.Millisecond, PageRows: 4}
	run := func() *Result {
		srv := world(t, scfg, lcfg.Tenants, lcfg)
		res, err := Run(srv, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	// Different seed must actually change the trajectory, or the
	// checksum is vacuous.
	lcfg.Seed = 100
	if c := run(); c.Checksum == a.Checksum {
		t.Fatal("different seed produced identical checksum")
	}
}

// TestLoadShedsUnderOverload drives far past capacity and checks the
// server degrades by shedding typed rejections while still completing
// work.
func TestLoadShedsUnderOverload(t *testing.T) {
	// Arrivals every ~20µs/tenant vastly outpace the warm-cache service
	// floor (MinService per slot), so the queue must overflow.
	lcfg := Config{
		Seed: 3, Tenants: 16, QueriesPerTenant: 8,
		Interarrival: 20 * time.Microsecond, Gen: mixedGen,
	}
	srv := world(t, serve.Config{MaxConcurrent: 2, MaxQueue: 4, MaxQueueWait: 200 * time.Millisecond, PageRows: 8},
		lcfg.Tenants, lcfg)
	res, err := Run(srv, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if totalRejected(res) == 0 {
		t.Fatalf("expected load shedding: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatal("overload collapsed goodput to zero")
	}
	if res.Rejected["other"] != 0 {
		t.Fatalf("untyped rejections: %v", res.Rejected)
	}
}

func totalRejected(r *Result) int {
	n := 0
	for _, v := range r.Rejected {
		n += v
	}
	return n
}
