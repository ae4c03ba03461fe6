package exp

import (
	"fmt"

	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sparkle"
	"biglake/internal/vector"
)

// --- A2: governance placement ablation ---
//
// §3.2 argues for enforcing fine-grained controls inside the Read API
// trust boundary instead of trusting each engine to apply them
// client-side. This ablation quantifies the two placements on the same
// governed query: with client-side enforcement the raw rows (including
// every policy-filtered row and unmasked value) cross the wire to the
// untrusted engine, which then filters; with boundary enforcement only
// governed rows ship.

// A2Result compares governance placements.
type A2Result struct {
	TotalRows         int
	VisibleRows       int
	ClientSideBytes   int64
	BoundaryBytes     int64
	ExposureReduction float64
	// RawLeaked reports whether the client-side placement ever held
	// rows the policy forbids (always true — that is the point).
	RawLeaked bool
}

// RunA2 builds a governed table and reads it both ways.
func RunA2(rows int) (A2Result, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return A2Result{}, err
	}
	analyst := security.Principal("analyst@corp")
	schema := vector.NewSchema(
		vector.Field{Name: "region", Type: vector.String},
		vector.Field{Name: "ssn", Type: vector.String},
	)
	bl := vector.NewBuilder(schema)
	for i := 0; i < rows; i++ {
		bl.Append(
			vector.StringValue([]string{"us", "eu", "jp", "br"}[i%4]),
			vector.StringValue(fmt.Sprintf("%09d", i)),
		)
	}
	file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	if err != nil {
		return A2Result{}, err
	}
	if _, err := env.Store.Put(env.Cred, "bench", "a2/p.blk", file, ""); err != nil {
		return A2Result{}, err
	}
	if err := env.Cat.CreateTable(catalog.Table{
		Dataset: "bench", Name: "a2", Type: catalog.BigLake, Schema: schema,
		Cloud: "gcp", Bucket: "bench", Prefix: "a2/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		return A2Result{}, err
	}
	env.Auth.GrantTable(Admin, "bench.a2", analyst, security.RoleViewer)
	env.Auth.AddRowPolicy(Admin, "bench.a2", security.RowPolicy{
		Name: "us", Grantees: map[security.Principal]bool{analyst: true},
		Filter: []colfmt.Predicate{{Column: "region", Op: vector.EQ, Value: vector.StringValue("us")}},
	})
	env.Auth.SetColumnPolicy(Admin, "bench.a2", security.ColumnPolicy{
		Column: "ssn", Allowed: map[security.Principal]bool{Admin: true}, Mask: vector.MaskLastFour,
	})

	// Client-side placement: the engine reads raw files with a bucket
	// credential and applies the policy itself (the status quo the
	// paper criticizes).
	user := objstore.Credential{Principal: string(analyst)}
	if err := env.Store.Grant(env.Cred, "bench", user.Principal, objstore.PermRead); err != nil {
		return A2Result{}, err
	}
	sessD := sparkle.NewSession(env.Clock, sparkle.Options{})
	raw, err := sessD.ReadFiles(env.Store, user, "bench", "a2/").Collect()
	if err != nil {
		return A2Result{}, err
	}
	clientBytes := int64(len(vector.EncodeBatch(raw, false)))
	// The client then filters — after already holding everything.
	mask := vector.CompareConst(raw.Column("region"), vector.EQ, vector.StringValue("us"))
	filtered, err := vector.Filter(raw, mask)
	if err != nil {
		return A2Result{}, err
	}

	// Boundary placement: the Read API ships only governed rows.
	sessA := sparkle.NewSession(env.Clock, sparkle.Options{})
	governed, err := sessA.ReadBigLake(env.Server, analyst, "bench.a2").Collect()
	if err != nil {
		return A2Result{}, err
	}
	boundaryBytes := sessA.Obs.Get("sparkle.readapi_bytes")

	if governed.N != filtered.N {
		return A2Result{}, fmt.Errorf("placements disagree: boundary %d rows, client %d", governed.N, filtered.N)
	}
	out := A2Result{
		TotalRows:       rows,
		VisibleRows:     governed.N,
		ClientSideBytes: clientBytes,
		BoundaryBytes:   boundaryBytes,
		RawLeaked:       raw.N > filtered.N,
	}
	if boundaryBytes > 0 {
		out.ExposureReduction = float64(clientBytes) / float64(boundaryBytes)
	}
	return out, nil
}
