package oracle

import (
	"errors"
	"fmt"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/vector"
)

// The fixed differential battery: hand-written queries over a
// star-shaped world, run through every acceleration-matrix cell at one
// and at four morsel workers and diffed against the oracle. Where the
// generated campaign (TestDifferential) uses dyadic floats and small
// tables, this world is built to expose the vectorized kernels:
//
//   - a fact table spanning four morsels, with non-dyadic float prices,
//     so every float SUM/AVG is bit-exact only if the engine folds rows
//     in the oracle's ascending order across morsel boundaries;
//   - multi-column join keys with NULLs on both sides, a NULL group key,
//     LEFT JOIN null-extension, and an empty table;
//   - explicit worker counts, so the parallel kernels are compared on
//     any host, whatever GOMAXPROCS is.
//
// Tables are unpartitioned and written in row order, so the engine
// scans rows in exactly the oracle's order. Both executors emit joins
// in probe order and groups in first-encounter order, so results are
// compared as exact row sequences; queries with a LIMIT carry an ORDER
// BY over every output column, since SQL does not otherwise fix which
// rows they return.

// batteryFactRows spans four morsels of the parallel kernels.
const batteryFactRows = 3*vector.MorselRows + 1000

// batteryTables builds the star world: fct (400 rows, three files),
// big (batteryFactRows rows, four files), dm (30 rows) and void
// (empty). Join keys k1/k2 and group key k2 carry NULLs on both sides.
func batteryTables() []*GenTable {
	factSchema := vector.NewSchema(
		vector.Field{Name: "k1", Type: vector.Int64},
		vector.Field{Name: "k2", Type: vector.String},
		vector.Field{Name: "v", Type: vector.Int64},
		vector.Field{Name: "price", Type: vector.Float64},
	)
	grps := []string{"red", "green", "blue"}
	fact := func(name string, n int, price func(i int) float64, files int) *GenTable {
		t := &GenTable{Full: "ds." + name, Schema: factSchema, FileRows: (n + files - 1) / files}
		for i := 0; i < n; i++ {
			k2 := vector.StringValue(grps[i%3])
			if i%17 == 0 {
				k2 = vector.NullValue // NULL join key: matches nothing
			}
			v := vector.IntValue(int64(i))
			if i%23 == 0 {
				v = vector.NullValue
			}
			t.Rows = append(t.Rows, []vector.Value{
				vector.IntValue(int64(i % 20)), k2, v, vector.FloatValue(price(i)),
			})
		}
		return t
	}
	fct := fact("fct", 400, func(i int) float64 { return float64(i%7) / 4 }, 3)
	// Tenths are not exactly representable, so sums depend on order.
	big := fact("big", batteryFactRows, func(i int) float64 { return float64(i%97) / 10 }, 4)

	dm := &GenTable{Full: "ds.dm", Schema: vector.NewSchema(
		vector.Field{Name: "k1", Type: vector.Int64},
		vector.Field{Name: "k2", Type: vector.String},
		vector.Field{Name: "name", Type: vector.String},
	)}
	for i := 0; i < 30; i++ {
		k2 := vector.StringValue(grps[i%3])
		if i%11 == 0 {
			k2 = vector.NullValue
		}
		dm.Rows = append(dm.Rows, []vector.Value{
			vector.IntValue(int64(i % 22)), k2, vector.StringValue(fmt.Sprintf("dim-%d", i)),
		})
	}
	void := &GenTable{Full: "ds.void", Schema: factSchema}
	return []*GenTable{fct, big, dm, void}
}

// batteryQueries covers every construct the vectorized kernels
// implement: multi-key joins, NULL join keys, LEFT JOIN
// null-extension, dictionary-encoded GROUP BY, empty inputs, global
// aggregates, top-K ORDER BY, and multi-morsel float folds.
var batteryQueries = []string{
	`SELECT f.v, f.k2, d.name FROM ds.fct AS f JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2`,
	`SELECT f.v, d.name FROM ds.fct AS f LEFT JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2`,
	`SELECT f.k1, d.name FROM ds.fct AS f JOIN ds.dm AS d ON f.k2 = d.k2 WHERE f.v < 50`,
	`SELECT f.k2, COUNT(*) AS n, SUM(f.v) AS sv, MIN(f.v) AS mn, MAX(f.k2) AS mx, AVG(f.price) AS ap
		FROM ds.fct AS f GROUP BY f.k2`,
	`SELECT f.k2, SUM(f.price) AS rev FROM ds.fct AS f GROUP BY f.k2 ORDER BY f.k2`,
	`SELECT COUNT(*) AS n, SUM(v) AS s, MIN(price) AS m, AVG(v) AS a FROM ds.fct WHERE v < 0`,
	`SELECT k2, COUNT(*) AS n FROM ds.fct WHERE v < 0 GROUP BY k2`,
	`SELECT f.v, e.v FROM ds.fct AS f JOIN ds.void AS e ON f.k1 = e.k1`,
	`SELECT f.v, e.v FROM ds.fct AS f LEFT JOIN ds.void AS e ON f.k1 = e.k1`,
	`SELECT e.k2, COUNT(*) AS n, SUM(e.v) AS s FROM ds.void AS e GROUP BY e.k2`,
	`SELECT v, price FROM ds.fct ORDER BY price DESC, v LIMIT 7`,
	`SELECT v FROM ds.fct WHERE v >= 10 ORDER BY v LIMIT 5`,
	`SELECT f.k2, COUNT(*) AS n FROM ds.fct AS f JOIN ds.dm AS d ON f.k2 = d.k2
		GROUP BY f.k2 ORDER BY n DESC, f.k2 LIMIT 2`,
	`SELECT f.k2, COUNT(*) AS n, SUM(f.v) AS s
		FROM ds.fct AS f JOIN ds.dm AS d ON f.k1 = d.k1 AND f.k2 = d.k2
		GROUP BY f.k2 ORDER BY f.k2`,
	`SELECT * FROM ds.fct ORDER BY v, k1, k2, price LIMIT 7`,
	`SELECT k2, SUM(v) AS s, COUNT(*) AS n FROM ds.fct GROUP BY k2 ORDER BY k2`,
	// Multi-morsel folds: float SUM/MIN/MAX/AVG over big must match
	// the oracle's ascending-row fold bit for bit.
	`SELECT d.name, COUNT(*) AS n, SUM(b.v) AS sv, SUM(b.price) AS rev, MIN(b.price) AS mn,
		MAX(b.price) AS mx, AVG(b.price) AS ap
		FROM ds.big AS b JOIN ds.dm AS d ON b.k1 = d.k1 AND b.k2 = d.k2
		GROUP BY d.name ORDER BY d.name`,
	`SELECT b.k2, COUNT(*) AS n, SUM(b.price) AS rev, AVG(b.v) AS av
		FROM ds.big AS b LEFT JOIN ds.dm AS d ON b.k1 = d.k1 AND b.k2 = d.k2 GROUP BY b.k2`,
	`SELECT COUNT(*) AS n, SUM(price) AS s, AVG(price) AS a, MIN(v) AS mn, MAX(k2) AS mx FROM ds.big`,
	`SELECT k1, SUM(price) AS s, MAX(price) AS mx FROM ds.big GROUP BY k1`,
}

// zeroGroupQueries select a column that is neither grouped nor
// aggregated. Select items are evaluated once per group, so over zero
// groups there is nothing to reject: each returns zero rows, not an
// error. zeroGroupRejected is the same shape over a non-empty input,
// which must fail.
var zeroGroupQueries = []string{
	`SELECT k2, v FROM ds.void GROUP BY k2`,
	`SELECT k2, v FROM ds.fct WHERE v < 0 GROUP BY k2`,
}

const zeroGroupRejected = `SELECT k2, v FROM ds.fct GROUP BY k2`

// TestDifferentialBattery runs the fixed battery through every matrix
// cell at MorselWorkers 1 and 4; every answer must equal the oracle's
// row for row, bit for bit.
func TestDifferentialBattery(t *testing.T) {
	w, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{w: w, db: NewDB(), rep: &Report{}, logf: t.Logf}
	if err := h.install(batteryTables()); err != nil {
		t.Fatal(err)
	}

	var queries []GenQuery
	for _, sql := range append(append([]string(nil), batteryQueries...), zeroGroupQueries...) {
		// Both executors must accept every query: otherwise the matrix
		// would count a consistent rejection as agreement.
		if _, err := h.db.ExecSQL(sql); err != nil {
			t.Fatalf("oracle rejects %q: %v", sql, err)
		}
		queries = append(queries, GenQuery{SQL: sql, Ordered: true})
	}
	for _, sql := range zeroGroupQueries {
		if rs, _ := h.db.ExecSQL(sql); len(rs.Rows) != 0 {
			t.Fatalf("%q: %d rows over zero groups, want 0", sql, len(rs.Rows))
		}
	}

	for _, workers := range []int{1, 4} {
		h.workers = workers
		if d := h.runMatrix(fmt.Sprintf("w%d", workers), queries); d != nil {
			t.Fatalf("workers=%d:\n%s", workers, d.Format())
		}
	}
	t.Logf("ok: %d queries, %d engine executions, %d accepted fault errors",
		len(queries), h.rep.Executions, h.rep.FaultErrors)

	if _, err := h.db.ExecSQL(zeroGroupRejected); err == nil {
		t.Fatalf("oracle accepts %q", zeroGroupRejected)
	}
	_, err = h.engineFor(defaultCell()).Query(engine.NewContext(diffAdmin, "battery-reject"), zeroGroupRejected)
	if !errors.Is(err, engine.ErrSemantic) {
		t.Fatalf("engine on %q: got %v, want ErrSemantic", zeroGroupRejected, err)
	}
}
