// Package exp implements the experiment harness that regenerates
// every table- and figure-shaped result of the paper (see DESIGN.md's
// per-experiment index E1–E12 and ablations A1–A5). Each RunEx
// function builds its own deterministic environment, executes the
// workload, and returns structured rows that cmd/benchlake renders and
// the root bench_test.go asserts and reports.
//
// Measurement convention: latency-bound experiments report *simulated*
// wall-clock (driven by the calibrated cloud cost model in
// internal/sim); CPU-bound experiments (E2) report real measured
// throughput.
package exp

import (
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sparkle"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
	"biglake/internal/workload"
)

// Admin is the harness's deployment administrator.
const Admin = security.Principal("bench@biglake")

// obsHook, when set, is invoked on every environment NewEnv builds —
// the benchlake CLI uses it to install a shared registry and tracer
// across all of an experiment's environments.
var obsHook func(*Env)

// SetObsHook installs (or, with nil, removes) the environment hook.
// Not safe for concurrent use with NewEnv; the CLI sets it once per
// experiment.
func SetObsHook(h func(*Env)) { obsHook = h }

// Observe points every component of the environment at a shared
// registry and attaches a tracer to the engine (either may be nil).
func (e *Env) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	if reg != nil {
		e.Obs = reg
		e.Store.UseObs(reg)
		e.Meta.UseObs(reg)
		e.Log.UseObs(reg)
		e.Engine.UseObs(reg)
		e.Server.UseObs(reg)
	}
	if tracer != nil {
		e.Engine.Tracer = tracer
	}
}

// Env is one self-contained single-region environment.
type Env struct {
	Clock  *sim.Clock
	Store  *objstore.Store
	Cat    *catalog.Catalog
	Auth   *security.Authority
	Meta   *bigmeta.Cache
	Log    *bigmeta.Log
	Engine *engine.Engine
	Server *storageapi.Server
	Cred   objstore.Credential
	WEnv   *workload.Env
	// Obs is the environment-wide metrics registry: the engine's own
	// registry, which the object store, Big Metadata, and Storage API
	// also count into, so one snapshot covers the whole environment.
	Obs *obs.Registry
}

// EnableTracing attaches a span tracer to the environment's engine and
// returns it; subsequent queries each record a span tree.
func (e *Env) EnableTracing(capTraces int) *obs.Tracer {
	tr := &obs.Tracer{Cap: capTraces}
	e.Engine.Tracer = tr
	return tr
}

// NewEnv builds an environment with the given engine options.
func NewEnv(opts engine.Options) (*Env, error) {
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa-bench@biglake"}
	if err := store.CreateBucket(cred, "bench"); err != nil {
		return nil, err
	}
	cat := catalog.New()
	if err := cat.CreateDataset(catalog.Dataset{Name: "bench", Region: "gcp-us", Cloud: "gcp"}); err != nil {
		return nil, err
	}
	auth := security.NewAuthority("bench-secret", Admin)
	if err := auth.RegisterConnection(Admin, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"}); err != nil {
		return nil, err
	}
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	stores := map[string]*objstore.Store{"gcp": store}
	eng := engine.New(cat, auth, meta, log, clock, stores, opts)
	eng.ManagedCred = cred
	srv := storageapi.NewServer(cat, auth, meta, log, clock, stores)
	srv.ManagedCred = cred
	store.UseObs(eng.Obs)
	meta.UseObs(eng.Obs)
	log.UseObs(eng.Obs)
	srv.UseObs(eng.Obs)
	env := &Env{
		Clock: clock, Store: store, Cat: cat, Auth: auth, Meta: meta, Log: log,
		Engine: eng, Server: srv, Cred: cred, Obs: eng.Obs,
		WEnv: &workload.Env{
			Catalog: cat, Auth: auth, Store: store, Log: log, Clock: clock,
			Cred: cred, Connection: "conn", Bucket: "bench", Cloud: "gcp",
			Dataset: "bench", Admin: Admin,
		},
	}
	if obsHook != nil {
		obsHook(env)
	}
	return env, nil
}

func (e *Env) query(id, sql string) (*engine.Result, error) {
	return e.Engine.Query(engine.NewContext(Admin, id), sql)
}

// --- E1: Figure 4 — TPC-DS speedup with metadata caching ---

// E1Row is one query's cache-off vs cache-on measurement.
type E1Row struct {
	QueryID  string
	Kind     string
	CacheOff time.Duration
	CacheOn  time.Duration
	Speedup  float64
}

// E1Result is the Figure 4 reproduction.
type E1Result struct {
	Rows           []E1Row
	TotalOff       time.Duration
	TotalOn        time.Duration
	OverallSpeedup float64
}

// RunE1 executes the TPC-DS-like power run with metadata caching off
// and on.
func RunE1(scale int) (E1Result, error) {
	cfg := workload.DefaultTPCDS(scale)
	cfg.FilesPerDate *= 2 // more files per partition widens the footer-peek cost

	run := func(opts engine.Options) (map[string]time.Duration, time.Duration, error) {
		env, err := NewEnv(opts)
		if err != nil {
			return nil, 0, err
		}
		if err := workload.LoadTPCDS(env.WEnv, cfg); err != nil {
			return nil, 0, err
		}
		if opts.UseMetadataCache {
			// Background maintenance builds the cache before the
			// power run, as in production.
			if _, err := env.Meta.Refresh("bench.store_sales", env.Store, env.Cred, "bench", "tpcds/store_sales/", bigmeta.RefreshOptions{WithFileStats: true, Background: true}); err != nil {
				return nil, 0, err
			}
		}
		times := map[string]time.Duration{}
		var total time.Duration
		for _, q := range workload.TPCDSQueries("bench", cfg) {
			res, err := env.query(q.ID, q.SQL)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", q.ID, err)
			}
			times[q.ID] = res.Stats.SimElapsed
			total += res.Stats.SimElapsed
		}
		return times, total, nil
	}

	offTimes, offTotal, err := run(engine.Options{UseMetadataCache: false, EnableDPP: true, PruneGranularity: bigmeta.PruneFiles})
	if err != nil {
		return E1Result{}, err
	}
	onTimes, onTotal, err := run(engine.DefaultOptions())
	if err != nil {
		return E1Result{}, err
	}

	out := E1Result{TotalOff: offTotal, TotalOn: onTotal}
	if onTotal > 0 {
		out.OverallSpeedup = float64(offTotal) / float64(onTotal)
	}
	for _, q := range workload.TPCDSQueries("bench", cfg) {
		row := E1Row{QueryID: q.ID, Kind: q.Kind, CacheOff: offTimes[q.ID], CacheOn: onTimes[q.ID]}
		if row.CacheOn > 0 {
			row.Speedup = float64(row.CacheOff) / float64(row.CacheOn)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// --- E2: §3.4 — vectorized vs row-oriented Read API ---

// E2Result reports real measured ReadRows throughput for both reader
// generations.
type E2Result struct {
	Rows            int
	VectorizedTime  time.Duration
	RowOrientedTime time.Duration
	ThroughputGain  float64
}

// RunE2 measures real CPU throughput of the two ReadRows pipelines
// over a dictionary/RLE-heavy table.
func RunE2(rows int) (E2Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E2Result{}, err
	}
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "country", Type: vector.String},
		vector.Field{Name: "state", Type: vector.String},
		vector.Field{Name: "amount", Type: vector.Int64},
	)
	countries := []string{"us", "de", "fr", "jp", "br", "in", "cn", "uk"}
	states := []string{"a", "b", "c", "d"}
	bl := vector.NewBuilder(schema)
	for i := 0; i < rows; i++ {
		bl.Append(
			vector.IntValue(int64(i)),
			vector.StringValue(countries[i%len(countries)]),
			vector.StringValue(states[(i/64)%len(states)]),
			vector.IntValue(int64(i%1000)),
		)
	}
	file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{RowGroupRows: 8192})
	if err != nil {
		return E2Result{}, err
	}
	if _, err := env.Store.Put(env.Cred, "bench", "wide/part-0.blk", file, ""); err != nil {
		return E2Result{}, err
	}
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "wide", Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "bench", Prefix: "wide/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		return E2Result{}, err
	}

	measure := func(rowOriented bool) (time.Duration, error) {
		env.Server.SessionTTL = 0 // fresh sessions per run
		start := time.Now()
		sess, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{
			Table: "bench.wide", Principal: Admin, RowOriented: rowOriented,
			Predicates: []colfmt.Predicate{{Column: "country", Op: vector.EQ, Value: vector.StringValue("de")}},
		})
		if err != nil {
			return 0, err
		}
		if _, err := env.Server.ReadAll(sess); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	// Warm both paths once, then measure.
	if _, err := measure(false); err != nil {
		return E2Result{}, err
	}
	if _, err := measure(true); err != nil {
		return E2Result{}, err
	}
	vec, err := measure(false)
	if err != nil {
		return E2Result{}, err
	}
	rowT, err := measure(true)
	if err != nil {
		return E2Result{}, err
	}
	out := E2Result{Rows: rows, VectorizedTime: vec, RowOrientedTime: rowT}
	if vec > 0 {
		out.ThroughputGain = float64(rowT) / float64(vec)
	}
	return out, nil
}

// --- E3: §3.4 — session statistics improve external-engine plans ---

// E3Row is one external-engine query measured blind vs stats-driven.
type E3Row struct {
	QueryID  string
	Blind    time.Duration
	WithStat time.Duration
	Speedup  float64
}

// E3Result is the external-engine planning experiment.
type E3Result struct {
	Rows           []E3Row
	OverallSpeedup float64
}

// RunE3 executes snowflake-style Sparkle plans over the TPC-DS tables
// with session statistics (join reordering + DPP) off and on.
func RunE3(scale int) (E3Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E3Result{}, err
	}
	// A wider fact (many item-clustered files per partition) gives the
	// stats-driven planner room to prune; this is where the paper's 5x
	// comes from.
	cfg := workload.DefaultTPCDS(scale)
	cfg.FilesPerDate = 16 * scale
	cfg.RowsPerFile = 250
	if err := workload.LoadTPCDS(env.WEnv, cfg); err != nil {
		return E3Result{}, err
	}
	// Dimensions must be readable through the Read API: register
	// BigLake copies of the dims (the loader made them native; the
	// Read API serves both, so grant access and go).
	type plan struct {
		id    string
		build func(s *sparkle.Session) *sparkle.Frame
	}
	day := int64(20240101 + int64(cfg.Dates/2))
	// The snowflake plans join the item-clustered fact with filtered
	// dimensions; block-assigned dim attributes give DPP a contiguous
	// key range to prune fact files with.
	plans := []plan{
		{"s01", func(s *sparkle.Session) *sparkle.Frame {
			fact := s.ReadBigLake(env.Server, Admin, "bench.store_sales")
			item := s.ReadBigLake(env.Server, Admin, "bench.item").
				Filter(colfmt.Predicate{Column: "i_category", Op: vector.EQ, Value: vector.StringValue("Books")})
			return fact.Join(item, "item_sk", "i_item_sk").
				GroupBy("i_category").Agg(sparkle.AggSpec{Kind: vector.AggSum, Column: "sales_price", As: "rev"})
		}},
		{"s02", func(s *sparkle.Session) *sparkle.Frame {
			fact := s.ReadBigLake(env.Server, Admin, "bench.store_sales")
			item := s.ReadBigLake(env.Server, Admin, "bench.item").
				Filter(colfmt.Predicate{Column: "i_brand", Op: vector.EQ, Value: vector.StringValue("brand_03")})
			return fact.Join(item, "item_sk", "i_item_sk").
				GroupBy("i_brand").Agg(sparkle.AggSpec{Kind: vector.AggCount, Column: "item_sk", As: "n"})
		}},
		{"s03", func(s *sparkle.Session) *sparkle.Frame {
			fact := s.ReadBigLake(env.Server, Admin, "bench.store_sales").
				Filter(colfmt.Predicate{Column: "sold_date", Op: vector.EQ, Value: vector.IntValue(day)})
			item := s.ReadBigLake(env.Server, Admin, "bench.item").
				Filter(colfmt.Predicate{Column: "i_category", Op: vector.EQ, Value: vector.StringValue("Toys")})
			return fact.Join(item, "item_sk", "i_item_sk").
				GroupBy("i_category").Agg(sparkle.AggSpec{Kind: vector.AggSum, Column: "quantity", As: "qty"})
		}},
	}

	out := E3Result{}
	var blindTotal, statTotal time.Duration
	for _, p := range plans {
		row := E3Row{QueryID: p.id}
		for _, stats := range []bool{false, true} {
			sess := sparkle.NewSession(env.Clock, sparkle.Options{UseSessionStats: stats, EnableDPP: stats})
			before := env.Clock.Now()
			if _, err := p.build(sess).Collect(); err != nil {
				return E3Result{}, fmt.Errorf("%s: %w", p.id, err)
			}
			elapsed := env.Clock.Now() - before
			if stats {
				row.WithStat = elapsed
				statTotal += elapsed
			} else {
				row.Blind = elapsed
				blindTotal += elapsed
			}
		}
		if row.WithStat > 0 {
			row.Speedup = float64(row.Blind) / float64(row.WithStat)
		}
		out.Rows = append(out.Rows, row)
	}
	if statTotal > 0 {
		out.OverallSpeedup = float64(blindTotal) / float64(statTotal)
	}
	return out, nil
}

// --- E4: §3.4 — Read API vs direct object-store reads on TPC-H ---

// E4Row is one TPC-H-like plan's direct vs Read API time.
type E4Row struct {
	QueryID string
	Direct  time.Duration
	ReadAPI time.Duration
	Ratio   float64 // direct/readapi; >= 1 means parity or better
}

// E4Result is the external-engine price-performance experiment.
type E4Result struct {
	Rows []E4Row
}

// RunE4 runs the same Sparkle plans through direct file reads and the
// Read API.
func RunE4(scale int) (E4Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return E4Result{}, err
	}
	cfg := workload.DefaultTPCH(scale)
	if err := workload.LoadTPCH(env.WEnv, cfg); err != nil {
		return E4Result{}, err
	}
	// External engines reading files directly use the user's own
	// bucket access.
	user := objstore.Credential{Principal: "spark-user@corp"}
	if err := env.Store.Grant(env.Cred, "bench", user.Principal, objstore.PermRead); err != nil {
		return E4Result{}, err
	}
	// Warm the metadata cache as background maintenance.
	for _, tbl := range []string{"lineitem", "orders", "customer"} {
		if _, err := env.Meta.Refresh("bench."+tbl, env.Store, env.Cred, "bench", "tpch/"+tbl+"/", bigmeta.RefreshOptions{WithFileStats: true, Background: true}); err != nil {
			return E4Result{}, err
		}
	}

	type plan struct {
		id     string
		prefix string
		preds  []colfmt.Predicate
		table  string
	}
	plans := []plan{
		{"h-scan", "tpch/lineitem/", nil, "bench.lineitem"},
		{"h-filter", "tpch/lineitem/", []colfmt.Predicate{{Column: "l_quantity", Op: vector.LT, Value: vector.IntValue(10)}}, "bench.lineitem"},
		{"h-point", "tpch/lineitem/", []colfmt.Predicate{{Column: "l_orderkey", Op: vector.EQ, Value: vector.IntValue(42)}}, "bench.lineitem"},
		{"h-orders", "tpch/orders/", []colfmt.Predicate{{Column: "o_totalprice", Op: vector.GT, Value: vector.FloatValue(2500)}}, "bench.orders"},
	}
	out := E4Result{}
	for _, p := range plans {
		row := E4Row{QueryID: p.id}

		sessD := sparkle.NewSession(env.Clock, sparkle.Options{})
		frame := sessD.ReadFiles(env.Store, user, "bench", p.prefix)
		for _, pr := range p.preds {
			frame = frame.Filter(pr)
		}
		before := env.Clock.Now()
		directBatch, err := frame.Collect()
		if err != nil {
			return E4Result{}, err
		}
		row.Direct = env.Clock.Now() - before

		sessA := sparkle.NewSession(env.Clock, sparkle.Options{UseSessionStats: true})
		frame = sessA.ReadBigLake(env.Server, Admin, p.table)
		for _, pr := range p.preds {
			frame = frame.Filter(pr)
		}
		before = env.Clock.Now()
		apiBatch, err := frame.Collect()
		if err != nil {
			return E4Result{}, err
		}
		row.ReadAPI = env.Clock.Now() - before
		if directBatch.N != apiBatch.N {
			return E4Result{}, fmt.Errorf("%s: direct %d rows != readapi %d", p.id, directBatch.N, apiBatch.N)
		}
		if row.ReadAPI > 0 {
			row.Ratio = float64(row.Direct) / float64(row.ReadAPI)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
