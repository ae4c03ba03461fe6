package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/vector"
)

// fakeMutator records DML calls so the engine's dispatch, literal
// coercion, and where/set closure plumbing are testable without blmt.
type fakeMutator struct {
	inserted map[string]*vector.Batch
	tables   map[string]*vector.Batch
	created  map[string]*vector.Batch
}

func newFakeMutator() *fakeMutator {
	return &fakeMutator{
		inserted: map[string]*vector.Batch{},
		tables:   map[string]*vector.Batch{},
		created:  map[string]*vector.Batch{},
	}
}

func (m *fakeMutator) Insert(ctx *QueryContext, table string, rows *vector.Batch) error {
	m.inserted[table] = rows
	return nil
}

func (m *fakeMutator) Delete(ctx *QueryContext, table string, where func(*vector.Batch) ([]bool, error)) (int64, error) {
	b, ok := m.tables[table]
	if !ok {
		return 0, fmt.Errorf("fake: no table %s", table)
	}
	mask, err := where(b)
	if err != nil {
		return 0, err
	}
	kept, err := vector.Filter(b, vector.Not(mask))
	if err != nil {
		return 0, err
	}
	deleted := int64(b.N - kept.N)
	m.tables[table] = kept
	return deleted, nil
}

func (m *fakeMutator) Update(ctx *QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error) {
	b, ok := m.tables[table]
	if !ok {
		return 0, fmt.Errorf("fake: no table %s", table)
	}
	mask, err := where(b)
	if err != nil {
		return 0, err
	}
	updated, err := set(b)
	if err != nil {
		return 0, err
	}
	// Merge updated values onto masked rows.
	builder := vector.NewBuilder(b.Schema)
	n := int64(0)
	for r := 0; r < b.N; r++ {
		if mask[r] {
			builder.Append(updated.Row(r)...)
			n++
		} else {
			builder.Append(b.Row(r)...)
		}
	}
	m.tables[table] = builder.Build()
	return n, nil
}

func (m *fakeMutator) CreateTableAs(ctx *QueryContext, table string, orReplace bool, rows *vector.Batch) error {
	if _, ok := m.created[table]; ok && !orReplace {
		return fmt.Errorf("fake: %s exists", table)
	}
	m.created[table] = rows
	return nil
}

func eventsEnv(t *testing.T) (*env, *fakeMutator) {
	t.Helper()
	ev := newEnv(t, DefaultOptions())
	schema := vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "kind", Type: vector.String},
		vector.Field{Name: "score", Type: vector.Float64},
		vector.Field{Name: "ts", Type: vector.Timestamp},
	)
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "events", Type: catalog.Managed, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: "blmt/events/", Connection: "lake-conn",
	}); err != nil {
		t.Fatal(err)
	}
	m := newFakeMutator()
	bl := vector.NewBuilder(schema)
	for i := 0; i < 6; i++ {
		bl.Append(vector.IntValue(int64(i)), vector.StringValue([]string{"a", "b"}[i%2]),
			vector.FloatValue(float64(i)), vector.TimestampValue(int64(i)*100))
	}
	m.tables["ds.events"] = bl.Build()
	ev.eng.SetMutator(m)
	return ev, m
}

func TestInsertCoercesLiterals(t *testing.T) {
	ev, m := eventsEnv(t)
	// Int literals into float and timestamp columns must coerce.
	ev.query(t, adminP, "INSERT INTO ds.events VALUES (7, 'c', 3, 700)")
	got := m.inserted["ds.events"]
	if got == nil || got.N != 1 {
		t.Fatalf("inserted = %+v", got)
	}
	row := got.Row(0)
	if row[2].Type != vector.Float64 || row[2].AsFloat() != 3 {
		t.Fatalf("score not coerced: %v (%v)", row[2], row[2].Type)
	}
	if row[3].Type != vector.Timestamp || row[3].AsInt() != 700 {
		t.Fatalf("ts not coerced: %v", row[3])
	}
}

func TestInsertNullLiteral(t *testing.T) {
	ev, m := eventsEnv(t)
	ev.query(t, adminP, "INSERT INTO ds.events (id, kind) VALUES (9, NULL)")
	row := m.inserted["ds.events"].Row(0)
	if !row[1].IsNull() {
		t.Fatalf("kind = %v, want NULL", row[1])
	}
}

func TestInsertArityMismatch(t *testing.T) {
	ev, _ := eventsEnv(t)
	if _, err := ev.eng.Query(NewContext(adminP, "q"),
		"INSERT INTO ds.events (id, kind) VALUES (1)"); !errors.Is(err, ErrSemantic) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertRequiresWriteRole(t *testing.T) {
	ev, _ := eventsEnv(t)
	ev.auth.GrantTable(adminP, "ds.events", aliceP, 1 /* viewer */)
	if _, err := ev.eng.Query(NewContext(aliceP, "q"),
		"INSERT INTO ds.events VALUES (1, 'x', 1.0, 1)"); err == nil {
		t.Fatal("viewer insert should be denied")
	}
}

func TestDeleteWithWhereClosure(t *testing.T) {
	ev, m := eventsEnv(t)
	res := ev.query(t, adminP, "DELETE FROM ds.events WHERE kind = 'a'")
	if res.Batch.Column("rows_deleted").Value(0).AsInt() != 3 {
		t.Fatalf("deleted = %v", res.Batch.Row(0))
	}
	if m.tables["ds.events"].N != 3 {
		t.Fatal("fake table not updated")
	}
	// DELETE without WHERE removes everything.
	res = ev.query(t, adminP, "DELETE FROM ds.events")
	if res.Batch.Column("rows_deleted").Value(0).AsInt() != 3 {
		t.Fatalf("unconditional delete = %v", res.Batch.Row(0))
	}
}

func TestUpdateSetAndWhere(t *testing.T) {
	ev, m := eventsEnv(t)
	res := ev.query(t, adminP, "UPDATE ds.events SET score = score + 100, kind = 'z' WHERE id >= 4")
	if res.Batch.Column("rows_updated").Value(0).AsInt() != 2 {
		t.Fatalf("updated = %v", res.Batch.Row(0))
	}
	b := m.tables["ds.events"]
	for r := 0; r < b.N; r++ {
		row := b.Row(r)
		if row[0].AsInt() >= 4 {
			if row[1].S != "z" || row[2].AsFloat() < 100 {
				t.Fatalf("row %v not updated", row)
			}
		} else if row[1].S == "z" {
			t.Fatalf("row %v wrongly updated", row)
		}
	}
}

func TestUpdateUnknownColumn(t *testing.T) {
	ev, _ := eventsEnv(t)
	if _, err := ev.eng.Query(NewContext(adminP, "q"),
		"UPDATE ds.events SET ghost = 1"); !errors.Is(err, ErrSemantic) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateCoercesIntoFloatColumn(t *testing.T) {
	ev, m := eventsEnv(t)
	ev.query(t, adminP, "UPDATE ds.events SET score = 5 WHERE id = 0")
	if got := m.tables["ds.events"].Row(0)[2]; got.Type != vector.Float64 || got.AsFloat() != 5 {
		t.Fatalf("score = %v (%v)", got, got.Type)
	}
}

func TestCTASThroughMutator(t *testing.T) {
	ev, m := eventsEnv(t)
	ev.createOrders(t, []string{"us"}, 1, 5, true)
	ev.query(t, adminP, "CREATE TABLE ds.copy AS SELECT order_id FROM ds.orders WHERE order_id < 3")
	got := m.created["ds.copy"]
	if got == nil || got.N != 3 {
		t.Fatalf("ctas rows = %+v", got)
	}
}

func TestLiteralOnLeftComparison(t *testing.T) {
	// Exercises flipOp: `5 < order_id` must equal `order_id > 5`.
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	a := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE 5 < order_id")
	b := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE order_id > 5")
	if a.Batch.Column("n").Value(0).AsInt() != b.Batch.Column("n").Value(0).AsInt() {
		t.Fatalf("flipped comparison differs: %v vs %v", a.Batch.Row(0), b.Batch.Row(0))
	}
	if a.Batch.Column("n").Value(0).AsInt() != 4 {
		t.Fatalf("n = %v", a.Batch.Row(0))
	}
}

func TestColumnToColumnComparison(t *testing.T) {
	ev := newEnv(t, DefaultOptions())
	ev.createOrders(t, []string{"us"}, 1, 10, true)
	// order_id == customer_id for ids 0..9 (customer = id%100).
	res := ev.query(t, adminP, "SELECT COUNT(*) AS n FROM ds.orders WHERE order_id = customer_id")
	if res.Batch.Column("n").Value(0).AsInt() != 10 {
		t.Fatalf("n = %v", res.Batch.Row(0))
	}
}

func TestIntPartitionColumnInjection(t *testing.T) {
	// A table hive-partitioned by an integer column: the scan injects
	// the typed partition value (partitionValue path).
	ev := newEnv(t, DefaultOptions())
	schema := vector.NewSchema(
		vector.Field{Name: "v", Type: vector.Int64},
		vector.Field{Name: "hour", Type: vector.Int64},
	)
	for h := 1; h <= 3; h++ {
		bl := vector.NewBuilder(vector.NewSchema(vector.Field{Name: "v", Type: vector.Int64}))
		bl.Append(vector.IntValue(int64(h * 10)))
		file, err := writeColFile(bl.Build())
		if err != nil {
			t.Fatal(err)
		}
		ev.store.Put(ev.cred, "lake", fmt.Sprintf("ht/hour=%d/f.blk", h), file, "")
	}
	if err := ev.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "hourly", Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "lake", Prefix: "ht/", Connection: "lake-conn",
		PartitionColumn: "hour", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	res := ev.query(t, adminP, "SELECT v, hour FROM ds.hourly WHERE hour >= 2 ORDER BY hour")
	if res.Batch.N != 2 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	if res.Batch.Row(0)[1].AsInt() != 2 || res.Batch.Row(0)[1].Type != vector.Int64 {
		t.Fatalf("injected partition value = %v", res.Batch.Row(0)[1])
	}
}

// writeColFile is a test helper building a one-batch columnar file.
func writeColFile(b *vector.Batch) ([]byte, error) {
	return colfmt.WriteFile(b, colfmt.WriterOptions{})
}

// clockMutator is a fakeMutator whose writes take simulated time, as a
// real commit's PUTs would.
type clockMutator struct {
	*fakeMutator
	ev *env
}

func (m clockMutator) Insert(ctx *QueryContext, table string, rows *vector.Batch) error {
	m.ev.clock.Advance(7 * time.Millisecond)
	return m.fakeMutator.Insert(ctx, table, rows)
}

// TestDMLResultCarriesSimElapsed: a DML result reports the simulated
// time the statement took, like a SELECT result does.
func TestDMLResultCarriesSimElapsed(t *testing.T) {
	ev, m := eventsEnv(t)
	ev.eng.SetMutator(clockMutator{fakeMutator: m, ev: ev})
	before := ev.clock.Now()
	res := ev.query(t, adminP, "INSERT INTO ds.events VALUES (7, 'c', 3.0, 700)")
	elapsed := ev.clock.Now() - before
	if res.Stats.SimElapsed <= 0 || res.Stats.SimElapsed != elapsed {
		t.Fatalf("INSERT SimElapsed = %v, want clock delta %v", res.Stats.SimElapsed, elapsed)
	}
}
