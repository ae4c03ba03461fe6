package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"biglake/internal/engine"
	"biglake/internal/oracle"
)

// These tests diff the executor against internal/oracle, the
// row-at-a-time reference evaluator, over the star world: every answer
// must equal the oracle's row for row, bit for bit, with the same
// column names and types. internal/oracle's TestDifferentialBattery is
// the exhaustive version: the same queries through every
// acceleration-matrix cell, at explicit worker counts, plus a fact
// table that spans several morsels.

// checkAgainstOracle runs every query on a star-world engine built
// with opts and on the oracle loaded with the same rows.
func checkAgainstOracle(t *testing.T, opts engine.Options, queries []string) {
	t.Helper()
	run := engine.StarEngine(t, opts)
	db := oracle.NewDB()
	for _, tb := range engine.StarTables() {
		db.Add(&oracle.Table{Name: tb.Name, Schema: tb.Schema, Rows: tb.Rows})
	}
	for _, sql := range queries {
		want, err := db.ExecSQL(sql)
		if err != nil {
			t.Fatalf("oracle rejects %q: %v", sql, err)
		}
		if got, want := render(oracle.FromBatch(run(sql))), render(want); got != want {
			t.Errorf("engine diverges from the oracle on %q:\nengine:\n%s\noracle:\n%s", sql, got, want)
		}
	}
}

// render prints a result set with type tags, one row per line.
func render(rs *oracle.Resultset) string {
	var sb strings.Builder
	for i, name := range rs.Names {
		fmt.Fprintf(&sb, "%s:%d;", name, rs.Types[i])
	}
	sb.WriteString("\n")
	for _, row := range rs.Rows {
		for _, v := range row {
			if v.IsNull() {
				sb.WriteString("NULL|")
			} else {
				fmt.Fprintf(&sb, "%d:%s|", v.Type, v.String())
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestVectorizedMatchesLegacy pins the vectorized executor to the
// row-at-a-time reference over the whole star-world query set.
func TestVectorizedMatchesLegacy(t *testing.T) {
	checkAgainstOracle(t, engine.DefaultOptions(), engine.VectorizedBattery)
}

// TestGCLeanMatchesRowAtATime is the engine-level eager/lean parity
// spot check: the same statements with GCLean on and off both match
// the row-at-a-time reference.
func TestGCLeanMatchesRowAtATime(t *testing.T) {
	queries := []string{
		engine.StarJoinSQL,
		"SELECT * FROM ds.fct ORDER BY v, k1, k2 LIMIT 7",
		"SELECT k2, SUM(v) AS s, COUNT(*) AS n FROM ds.fct GROUP BY k2 ORDER BY k2",
	}
	for _, lean := range []bool{true, false} {
		opts := engine.DefaultOptions()
		opts.GCLean = lean
		checkAgainstOracle(t, opts, queries)
	}
}
