package iceberg

import (
	"errors"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

func testStore(t *testing.T) (*objstore.Store, objstore.Credential) {
	t.Helper()
	clock := sim.NewClock()
	st := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@test"}
	if err := st.CreateBucket(cred, "lake"); err != nil {
		t.Fatal(err)
	}
	return st, cred
}

func sampleSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "name", Type: vector.String},
		vector.Field{Name: "score", Type: vector.Float64},
		vector.Field{Name: "ok", Type: vector.Bool},
		vector.Field{Name: "ts", Type: vector.Timestamp},
	)
}

func sampleFiles() []bigmeta.FileEntry {
	return []bigmeta.FileEntry{
		{
			Bucket: "lake", Key: "t/data/f1.blk", Size: 100, RowCount: 10,
			Partition: map[string]string{"date": "2024-01-01"},
			ColumnStats: map[string]colfmt.ColumnStats{
				"id": {Min: colfmt.FromValue(vector.IntValue(1)), Max: colfmt.FromValue(vector.IntValue(10)), Nulls: 0},
			},
		},
		{Bucket: "lake", Key: "t/data/f2.blk", Size: 200, RowCount: 20},
	}
}

func TestExportAndReadBack(t *testing.T) {
	st, cred := testStore(t)
	metaKey, err := Export(nil, st, cred, "lake", "t/", "ds.t", sampleSchema(), sampleFiles(), 7)
	if err != nil {
		t.Fatal(err)
	}
	files, schema, err := ReadTable(st, cred, "lake", metaKey)
	if err != nil {
		t.Fatal(err)
	}
	fc, rc := Stats(files)
	if fc != 2 || rc != 30 {
		t.Fatalf("stats = %d files %d rows", fc, rc)
	}
	if files[0].Partition["date"] != "2024-01-01" {
		t.Fatalf("partition = %v", files[0].Partition)
	}
	if files[0].LowerBounds["id"] != "1" || files[0].UpperBounds["id"] != "10" {
		t.Fatalf("bounds = %v / %v", files[0].LowerBounds, files[0].UpperBounds)
	}
	if !schema.Equal(sampleSchema()) {
		t.Fatalf("schema round trip = %v", schema)
	}
}

func TestVersionHint(t *testing.T) {
	st, cred := testStore(t)
	k1, err := Export(nil, st, cred, "lake", "t/", "ds.t", sampleSchema(), sampleFiles(), 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Export(nil, st, cred, "lake", "t/", "ds.t", sampleSchema(), sampleFiles(), 2)
	if err != nil {
		t.Fatal(err)
	}
	hint, err := LatestMetadataKey(st, cred, "lake", "t/")
	if err != nil {
		t.Fatal(err)
	}
	if hint != k2 || hint == k1 {
		t.Fatalf("hint = %q", hint)
	}
}

func TestTypeMapping(t *testing.T) {
	cases := map[vector.Type]string{
		vector.Int64: "long", vector.Float64: "double", vector.Bool: "boolean",
		vector.Timestamp: "timestamptz", vector.Bytes: "binary", vector.String: "string",
	}
	for vt, it := range cases {
		if got := icebergType(vt); got != it {
			t.Errorf("icebergType(%v) = %q", vt, got)
		}
		if got := fromIcebergType(it); got != vt {
			t.Errorf("fromIcebergType(%q) = %v", it, got)
		}
	}
	if fromIcebergType("int") != vector.Int64 || fromIcebergType("decimal(10,2)") != vector.String {
		t.Fatal("iceberg type aliases")
	}
}

func TestReadTableRejectsNonIceberg(t *testing.T) {
	st, cred := testStore(t)
	st.Put(cred, "lake", "junk.json", []byte("{}"), "application/json")
	if _, _, err := ReadTable(st, cred, "lake", "junk.json"); !errors.Is(err, ErrNotIceberg) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ReadTable(st, cred, "lake", "missing.json"); err == nil {
		t.Fatal("missing metadata should fail")
	}
}

func TestReadTableMissingSnapshot(t *testing.T) {
	st, cred := testStore(t)
	// Hand-craft metadata whose current snapshot id matches nothing.
	meta := `{"format-version":2,"current-snapshot-id":99,"snapshots":[]}`
	st.Put(cred, "lake", "bad.metadata.json", []byte(meta), "application/json")
	if _, _, err := ReadTable(st, cred, "lake", "bad.metadata.json"); err == nil {
		t.Fatal("metadata without current snapshot should fail")
	}
}

func TestExportEmptyTable(t *testing.T) {
	st, cred := testStore(t)
	metaKey, err := Export(nil, st, cred, "lake", "t/", "ds.t", sampleSchema(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	files, _, err := ReadTable(st, cred, "lake", metaKey)
	if err != nil || len(files) != 0 {
		t.Fatalf("empty export: %d files, %v", len(files), err)
	}
}
