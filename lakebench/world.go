package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/core"
	"biglake/internal/engine"
	"biglake/internal/obs"
	"biglake/internal/oracle"
	"biglake/internal/security"
	"biglake/internal/vector"
)

const (
	dataset = "bench"
	bucket  = "lake"
)

// world is one freshly built lakehouse with every component publishing
// into the engine's registry.
type world struct {
	lh  *core.Lakehouse
	reg *obs.Registry
	// refresh is the host time the Big Metadata cache refreshes took.
	refresh time.Duration
}

func newWorld(c config, scanCacheBytes int64) (*world, error) {
	opts := c.engineOptions(scanCacheBytes)
	lh, err := core.New(core.Options{Engine: &opts})
	if err != nil {
		return nil, err
	}
	reg := lh.Engine.Obs
	lh.Store.UseObs(reg)
	lh.Meta.UseObs(reg)
	lh.Log.UseObs(reg)
	lh.StorageAPI.UseObs(reg)
	lh.Txns.UseObs(reg)
	if err := lh.CreateDataset(dataset); err != nil {
		return nil, err
	}
	if err := lh.CreateBucket(bucket); err != nil {
		return nil, err
	}
	return &world{lh: lh, reg: reg}, nil
}

// refreshMeta builds a BigLake table's Big Metadata cache, timing it.
func (w *world) refreshMeta(table string) error {
	t0 := time.Now()
	_, err := w.lh.RefreshMetadataCache(table)
	w.refresh += time.Since(t0)
	return err
}

// --- the E15 star schema ---

var groups = []string{"books", "music", "toys", "sports", "home", "garden", "auto", "games"}

// starData is the generated star schema: fact(k, amount, price) split
// across files, and dim(k, grp). Rows are kept as columns so the
// oracle and point-lookup checks read the same inputs the files hold.
type starData struct {
	k, amount []int64
	price     []float64
	files     int
	dimRows   int
}

// genStar draws the fact's join keys from the seed. amount and price
// follow E15 (row%1000, (row%997)/8), which makes the (amount, price)
// pair unique per row for up to 997,000 rows: a point lookup on it
// names exactly one generated row.
func genStar(seed uint64, s starWorld) *starData {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := &starData{
		k:      make([]int64, s.FactRows),
		amount: make([]int64, s.FactRows),
		price:  make([]float64, s.FactRows),
		files:  s.FactFiles, dimRows: s.DimRows,
	}
	for r := 0; r < s.FactRows; r++ {
		d.k[r] = int64(rng.Intn(s.DimRows))
		d.amount[r] = int64(r % 1000)
		d.price[r] = float64(r%997) / 8
	}
	return d
}

var (
	factSchema = vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "amount", Type: vector.Int64},
		vector.Field{Name: "price", Type: vector.Float64},
	)
	dimSchema = vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "grp", Type: vector.String},
	)
)

func (d *starData) dimColumns() ([]int64, []string) {
	ks := make([]int64, d.dimRows)
	gs := make([]string, d.dimRows)
	for i := range ks {
		ks[i] = int64(i)
		gs[i] = groups[i%len(groups)]
	}
	return ks, gs
}

// load uploads the star schema as two BigLake tables and refreshes
// their metadata caches.
func (d *starData) load(w *world) error {
	n := len(d.k)
	per := (n + d.files - 1) / d.files
	for f, lo := 0, 0; lo < n; f, lo = f+1, lo+per {
		hi := min(lo+per, n)
		b := vector.MustBatch(factSchema, []*vector.Column{
			vector.NewInt64Column(d.k[lo:hi]),
			vector.NewInt64Column(d.amount[lo:hi]),
			vector.NewFloat64Column(d.price[lo:hi]),
		})
		if err := upload(w, fmt.Sprintf("star/fact/part-%03d.blk", f), b); err != nil {
			return err
		}
	}
	ks, gs := d.dimColumns()
	dim := vector.MustBatch(dimSchema, []*vector.Column{vector.NewInt64Column(ks), vector.NewStringColumn(gs)})
	if err := upload(w, "star/dim/part-000.blk", dim); err != nil {
		return err
	}
	for name, schema := range map[string]vector.Schema{"fact": factSchema, "dim": dimSchema} {
		if err := w.lh.CreateBigLakeTable(w.lh.Admin, core.BigLakeTableSpec{
			Dataset: dataset, Name: name, Schema: schema,
			Bucket: bucket, Prefix: "star/" + name + "/", MetadataCaching: true,
		}); err != nil {
			return err
		}
	}
	for _, name := range []string{"fact", "dim"} {
		if err := w.refreshMeta(dataset + "." + name); err != nil {
			return err
		}
	}
	return nil
}

func upload(w *world, key string, b *vector.Batch) error {
	data, err := colfmt.WriteFile(b, colfmt.WriterOptions{})
	if err != nil {
		return err
	}
	return w.lh.Upload(bucket, key, data, "application/x-blk")
}

// oracleDB loads the star schema into the reference executor, rows in
// file order.
func (d *starData) oracleDB() *oracle.DB {
	db := oracle.NewDB()
	fact := &oracle.Table{Name: dataset + ".fact", Schema: factSchema, Rows: make([][]vector.Value, len(d.k))}
	for r := range d.k {
		fact.Rows[r] = []vector.Value{vector.IntValue(d.k[r]), vector.IntValue(d.amount[r]), vector.FloatValue(d.price[r])}
	}
	ks, gs := d.dimColumns()
	dim := &oracle.Table{Name: dataset + ".dim", Schema: dimSchema}
	for i := range ks {
		dim.Rows = append(dim.Rows, []vector.Value{vector.IntValue(ks[i]), vector.StringValue(gs[i])})
	}
	db.Add(fact)
	db.Add(dim)
	return db
}

const starJoinSQL = `SELECT d.grp, COUNT(*) AS n, SUM(f.amount) AS amt, SUM(f.price) AS rev
	FROM bench.fact AS f JOIN bench.dim AS d ON f.k = d.k%s
	GROUP BY d.grp ORDER BY d.grp`

// starQueries returns the plain E15 star join followed by variants
// with a selective dimension key range, the filter DPP turns into a
// range predicate on the fact scan.
func starQueries(rng *rand.Rand, s starWorld) []query {
	out := []query{{kind: kindStar, sql: fmt.Sprintf(starJoinSQL, "")}}
	for i := 0; i < s.DPPVariants; i++ {
		lo := rng.Intn(s.DimRows - s.DPPKeyRange)
		out = append(out, query{kind: kindDPP, sql: fmt.Sprintf(starJoinSQL,
			fmt.Sprintf(" WHERE d.k >= %d AND d.k < %d", lo, lo+s.DPPKeyRange))})
	}
	return out
}

// query is one distinct statement text with its reference answer.
type query struct {
	kind string
	sql  string
	want []string // rendered reference rows, sorted
}

// reference fills each query's answer from the oracle.
func reference(db *oracle.DB, qs []query) error {
	for i := range qs {
		rs, err := db.ExecSQL(qs[i].sql)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", qs[i].sql, err)
		}
		qs[i].want = render(rs)
	}
	return nil
}

// render gives a result a canonical form: type-tagged rows, sorted,
// so answers compare as multisets.
func render(rs *oracle.Resultset) []string {
	out := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		parts := make([]string, len(row))
		for c, v := range row {
			parts[c] = fmt.Sprintf("%d:%s", v.Type, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// check compares an engine result with a reference and describes the
// first difference ("" when they agree).
func check(got *vector.Batch, want []string) string {
	if got == nil {
		return "no result batch"
	}
	g := render(oracle.FromBatch(got))
	if len(g) != len(want) {
		return fmt.Sprintf("row count %d, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Sprintf("row %q, want %q", g[i], want[i])
		}
	}
	return ""
}

// pointSQL looks up one generated fact row by its unique
// (amount, price) pair.
func (d *starData) pointSQL(row int) (string, []string) {
	sql := fmt.Sprintf("SELECT k, amount, price FROM bench.fact WHERE amount = %d AND price = %s",
		d.amount[row], strconv.FormatFloat(d.price[row], 'f', -1, 64))
	want := []string{fmt.Sprintf("%d:%d|%d:%d|%d:%s", vector.Int64, d.k[row], vector.Int64, d.amount[row],
		vector.Float64, vector.FloatValue(d.price[row]).String())}
	return sql, want
}

// principal names tenant i.
func principal(i int) security.Principal {
	return security.Principal(fmt.Sprintf("tenant-%02d@biglake", i))
}

// runQuery runs one statement through core.Lakehouse.Query.
func runQuery(w *world, sql string) (*engine.Result, error) { return w.lh.Query(w.lh.Admin, sql) }
