package engine

import (
	"testing"

	"biglake/internal/vector"
)

// Hooks for the external engine_test package. Its tests diff engine
// answers against internal/oracle, which imports engine, so they
// cannot live in package engine itself.

// VectorizedBattery is the star-world query set.
var VectorizedBattery = vectorizedBattery

// StarJoinSQL is the star-world join + GROUP BY query.
const StarJoinSQL = starJoinSQL

// StarTable is one star-world table under its full "ds.name" name.
type StarTable struct {
	Name   string
	Schema vector.Schema
	Rows   [][]vector.Value
}

// StarTables returns the rows StarEngine installs.
func StarTables() []StarTable {
	var out []StarTable
	for _, tb := range starTables() {
		out = append(out, StarTable{Name: "ds." + tb.name, Schema: tb.schema, Rows: tb.rows})
	}
	return out
}

// StarEngine builds a star world on a fresh engine with opts and
// returns a function that runs one statement as admin.
func StarEngine(t *testing.T, opts Options) func(sql string) *vector.Batch {
	ev := newEnv(t, opts)
	starWorld(t, ev)
	return func(sql string) *vector.Batch {
		t.Helper()
		return ev.query(t, adminP, sql).Batch
	}
}
