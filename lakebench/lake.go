package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/oracle"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
	"biglake/internal/workload"
)

// lakeScan is a closed loop with one client over a hive-partitioned
// TPC-DS-like BigLake table whose decoded size exceeds the scan-cache
// budget: a seeded order of the TPCDSQueries power run, with a Storage
// Read API session after every read_every-th query.
type lakeScan struct {
	cfg     config
	l       lakeConfig
	tpc     workload.TPCDSConfig
	queries []query
	reads   []readVariant
	steps   []lakeStep
}

type lakeStep struct {
	read bool
	idx  int
}

// readVariant is one external-engine read: a projection that always
// carries quantity, one pushed-down predicate, and the reference
// row count and SUM(quantity) of the rows it must deliver.
type readVariant struct {
	columns []string
	pred    colfmt.Predicate
	rows    int64
	qty     int64
}

// dateSK mirrors the workload package's sold_date surrogate key.
func dateSK(i int) int64 { return 20240100 + int64(i) + 1 }

func (ls *lakeScan) prepare(seed uint64) error {
	l := ls.l
	ls.tpc = workload.TPCDSConfig{
		Dates: l.Dates, FilesPerDate: l.FilesPerDate, RowsPerFile: l.RowsPerFile,
		Items: l.Items, Customers: l.Customers, Stores: l.Stores, Seed: seed,
	}
	for _, q := range workload.TPCDSQueries(dataset, ls.tpc) {
		ls.queries = append(ls.queries, query{kind: kindTPCDS + "." + q.ID, sql: q.SQL})
	}
	// The power run keeps its canonical order: the seed varies the data
	// and the reads, not which query finds which files in the cache.
	rng := rand.New(rand.NewSource(int64(seed) + 2))
	for i := range ls.queries {
		ls.steps = append(ls.steps, lakeStep{idx: i})
		if (i+1)%l.ReadEvery == 0 {
			ls.steps = append(ls.steps, lakeStep{read: true, idx: len(ls.reads)})
			ls.reads = append(ls.reads, ls.readVariant(rng, len(ls.reads)))
		}
	}

	// The reference tables are read back from the files the loader
	// wrote, in a world built only for that.
	w, err := newWorld(ls.cfg, ls.l.ScanCacheBytes)
	if err != nil {
		return err
	}
	if err := workload.LoadTPCDS(ls.wenv(w), ls.tpc); err != nil {
		return err
	}
	db, err := readBackDB(w)
	if err != nil {
		return err
	}
	if err := reference(db, ls.queries); err != nil {
		return err
	}
	for i := range ls.reads {
		r := &ls.reads[i]
		sql := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(quantity) AS q FROM bench.store_sales WHERE %s %s %s",
			r.pred.Column, r.pred.Op, r.pred.Value)
		rs, err := db.ExecSQL(sql)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", sql, err)
		}
		r.rows, r.qty = rs.Rows[0][0].I, rs.Rows[0][1].I
	}
	return nil
}

// readVariant makes the i-th read of a pass. Reads cycle through four
// predicate shapes of fixed selectivity (one date partition, the
// lowest quarter of item keys, one store, quantity >= 6) and project
// quantity plus two seeded columns, so every seed asks the Read API
// for the same amount of work.
func (ls *lakeScan) readVariant(rng *rand.Rand, i int) readVariant {
	others := []string{"sold_date", "item_sk", "customer_sk", "store_sk", "sales_price"}
	rng.Shuffle(len(others), func(a, b int) { others[a], others[b] = others[b], others[a] })
	rv := readVariant{columns: append([]string{"quantity"}, others[:2]...)}
	switch i % 4 {
	case 0:
		rv.pred = colfmt.Predicate{Column: "sold_date", Op: vector.EQ, Value: vector.IntValue(dateSK(rng.Intn(ls.l.Dates)))}
	case 1:
		rv.pred = colfmt.Predicate{Column: "item_sk", Op: vector.LT, Value: vector.IntValue(int64(ls.l.Items / 4))}
	case 2:
		rv.pred = colfmt.Predicate{Column: "store_sk", Op: vector.EQ, Value: vector.IntValue(int64(rng.Intn(ls.l.Stores)))}
	default:
		rv.pred = colfmt.Predicate{Column: "quantity", Op: vector.GE, Value: vector.IntValue(6)}
	}
	return rv
}

func (ls *lakeScan) wenv(w *world) *workload.Env {
	return &workload.Env{
		Catalog: w.lh.Catalog, Auth: w.lh.Auth, Store: w.lh.Store, Log: w.lh.Log, Clock: w.lh.Clock,
		Cred: w.lh.ServiceAccount(), Connection: "default", Bucket: bucket, Cloud: w.lh.Cloud(),
		Dataset: dataset, Admin: w.lh.Admin,
	}
}

// readBackDB decodes every table file the loader wrote into oracle
// tables, in key order.
func readBackDB(w *world) (*oracle.DB, error) {
	db := oracle.NewDB()
	objs, err := w.lh.Store.ListAll(w.lh.ServiceAccount(), bucket, "")
	if err != nil {
		return nil, err
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Key < objs[j].Key })
	for _, o := range objs {
		var name string
		switch {
		case strings.HasPrefix(o.Key, "tpcds/store_sales/"):
			name = "store_sales"
		case strings.HasPrefix(o.Key, "native/"):
			name = strings.Split(o.Key, "/")[1]
		default:
			continue
		}
		data, _, err := w.lh.Store.Get(w.lh.ServiceAccount(), bucket, o.Key)
		if err != nil {
			return nil, err
		}
		r, err := colfmt.NewVectorizedReader(data, nil, nil)
		if err != nil {
			return nil, err
		}
		b, err := r.ReadAll()
		if err != nil {
			return nil, err
		}
		full := dataset + "." + name
		t := db.Tables[full]
		if t == nil {
			t = &oracle.Table{Name: full, Schema: b.Schema}
			db.Add(t)
		}
		for i := 0; i < b.N; i++ {
			t.Rows = append(t.Rows, b.Row(i))
		}
	}
	return db, nil
}

func (ls *lakeScan) build() (*world, error) {
	w, err := newWorld(ls.cfg, ls.l.ScanCacheBytes)
	if err != nil {
		return nil, err
	}
	if err := workload.LoadTPCDS(ls.wenv(w), ls.tpc); err != nil {
		return nil, err
	}
	if err := w.refreshMeta(dataset + ".store_sales"); err != nil {
		return nil, err
	}
	// One whole pass (reads included) brings the cache to the state
	// every measured pass starts from.
	ph := newPhase("warm-up", w, false, 0, 1)
	ph.begin()
	ls.runPass(ph)
	if ph.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", ph.firstFailure)
	}
	return w, nil
}

func (ls *lakeScan) measure(ph *phase) error {
	ph.runPasses(func() { ls.runPass(ph) })
	return nil
}

func (ls *lakeScan) runPass(ph *phase) {
	for _, st := range ls.steps {
		if st.read {
			ls.readStep(ph, ls.reads[st.idx])
			continue
		}
		ph.coreStep(ls.queries[st.idx])
	}
}

// readStep is one external-engine read: CreateReadSession, then
// ReadRows on every stream until it ends, checking the delivered rows
// against the reference.
func (ls *lakeScan) readStep(ph *phase, rv readVariant) {
	srv := ph.w.lh.StorageAPI
	req := ph.req()
	t0, sim0 := time.Now(), ph.w.lh.Clock.Now()
	sp := ph.spans.start("storageapi.create_read_session", req, -1)
	rs, err := srv.CreateReadSession(storageapi.ReadSessionRequest{
		Table: dataset + ".store_sales", Principal: ph.w.lh.Admin,
		Columns: rv.columns, Predicates: []colfmt.Predicate{rv.pred}, SnapshotVersion: -1,
	})
	ph.spans.end(sp)
	var rows, qty, bytes int64
	if err == nil {
		rows, qty, bytes, err = ls.drain(ph, req, rs)
	}
	wall := time.Since(t0)
	wrong := ""
	if err == nil && (rows != rv.rows || qty != rv.qty) {
		wrong = fmt.Sprintf("read session delivered %d rows, SUM(quantity)=%d; want %d, %d", rows, qty, rv.rows, rv.qty)
	}
	if err == nil && wrong == "" {
		ph.mu.Lock()
		ph.readBytes += bytes
		ph.readWall += wall
		ph.readSessions++
		ph.mu.Unlock()
	}
	ph.record(sample{kind: kindRead + "." + rv.pred.Column, wall: wall, sim: ph.w.lh.Clock.Now() - sim0}, err, wrong)
}

func (ls *lakeScan) drain(ph *phase, req string, rs *storageapi.ReadSession) (rows, qty, bytes int64, err error) {
	srv := ph.w.lh.StorageAPI
	for _, stream := range rs.Streams {
		for {
			sp := ph.spans.start("storageapi.read_rows", req, -1)
			payload, err := srv.ReadRows(rs.ID, stream)
			ph.spans.end(sp)
			if errors.Is(err, storageapi.ErrEndOfStream) {
				break
			}
			if err != nil {
				return 0, 0, 0, err
			}
			bytes += int64(len(payload))
			b, err := vector.DecodeBatch(payload)
			if err != nil {
				return 0, 0, 0, err
			}
			col := b.Schema.Index("quantity")
			if col < 0 {
				return 0, 0, 0, fmt.Errorf("read session lost the quantity column")
			}
			rows += int64(b.N)
			for i := 0; i < b.N; i++ {
				qty += b.Cols[col].Value(i).I
			}
		}
	}
	return rows, qty, bytes, nil
}
