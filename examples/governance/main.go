// Governance: the §3.2/§3.4 external-engine story. A Spark-style
// engine ("Sparkle") reads the same BigLake table two ways — directly
// from the bucket with its own credential (raw bytes, no governance)
// and through the Storage Read API (filtered, masked, and accelerated
// by session statistics) — demonstrating why the Read API is the trust
// boundary and what the metadata layer buys external engines.
package main

import (
	"fmt"
	"log"

	"biglake"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const (
	admin     = biglake.Principal("admin@biglake")
	sparkUser = biglake.Principal("spark-user@corp")
)

func main() {
	lh, err := biglake.New(biglake.Options{Admin: admin})
	if err != nil {
		log.Fatal(err)
	}
	must(lh.CreateDataset("lake"))
	must(lh.CreateBucket("shared-bucket"))

	// A fact table (clustered item keys per file) and a dimension.
	factSchema := biglake.NewSchema(
		biglake.Field{Name: "item_sk", Type: biglake.Int64},
		biglake.Field{Name: "qty", Type: biglake.Int64},
		biglake.Field{Name: "buyer_email", Type: biglake.String},
	)
	rng := sim.NewRNG(7)
	for f := 0; f < 8; f++ {
		bl := vector.NewBuilder(factSchema)
		for r := 0; r < 500; r++ {
			item := int64(f*100 + rng.Intn(100))
			bl.Append(biglake.IntValue(item), biglake.IntValue(int64(1+rng.Intn(5))),
				biglake.StringValue(fmt.Sprintf("buyer%d@example.com", item)))
		}
		file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
		must(err)
		must(lh.Upload("shared-bucket", fmt.Sprintf("fact/part-%02d.blk", f), file, ""))
	}
	dimSchema := biglake.NewSchema(
		biglake.Field{Name: "i_item_sk", Type: biglake.Int64},
		biglake.Field{Name: "i_category", Type: biglake.String},
	)
	bl := vector.NewBuilder(dimSchema)
	for i := 0; i < 800; i++ {
		cat := "General"
		if i < 50 {
			cat = "Books"
		}
		bl.Append(biglake.IntValue(int64(i)), biglake.StringValue(cat))
	}
	dimFile, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
	must(err)
	must(lh.Upload("shared-bucket", "dim/part-0.blk", dimFile, ""))

	_, err = lh.CreateConnection("conn", "shared-bucket")
	must(err)
	must(lh.CreateBigLakeTable(admin, biglake.BigLakeTableSpec{
		Dataset: "lake", Name: "fact", Schema: factSchema,
		Bucket: "shared-bucket", Prefix: "fact/", Connection: "conn", MetadataCaching: true,
	}))
	must(lh.CreateBigLakeTable(admin, biglake.BigLakeTableSpec{
		Dataset: "lake", Name: "item", Schema: dimSchema,
		Bucket: "shared-bucket", Prefix: "dim/", Connection: "conn", MetadataCaching: true,
	}))
	must(lh.Auth.GrantTable(admin, "lake.fact", sparkUser, biglake.RoleViewer))
	must(lh.Auth.GrantTable(admin, "lake.item", sparkUser, biglake.RoleViewer))
	must(lh.Auth.SetColumnPolicy(admin, "lake.fact", biglake.ColumnPolicy{
		Column:  "buyer_email",
		Allowed: map[biglake.Principal]bool{admin: true},
		Mask:    vector.MaskLastFour,
	}))

	// The spark user also happens to hold raw bucket access — the
	// pre-BigLake deployment pattern the paper calls out.
	userCred := objstore.Credential{Principal: string(sparkUser)}
	must(lh.Store.Grant(lh.ServiceAccount(), "shared-bucket", userCred.Principal, objstore.PermRead))

	// Path 1: direct file reads — raw emails, no governance.
	direct := biglake.NewSparkleSession(lh, biglake.SparkleOptions{})
	rawBatch, err := direct.ReadFiles(lh.Store, userCred, "shared-bucket", "fact/").Collect()
	must(err)
	fmt.Printf("direct file read: %d rows, first email %q  <- ungoverned\n",
		rawBatch.N, rawBatch.Column("buyer_email").Value(0).S)

	// Path 2: the Read API connector — masked, plus statistics-driven
	// join reordering and dynamic partition pruning.
	smart := biglake.NewSparkleSession(lh, biglake.SparkleOptions{UseSessionStats: true, EnableDPP: true})
	fact := smart.ReadBigLake(lh.StorageAPI, sparkUser, "lake.fact")
	item := smart.ReadBigLake(lh.StorageAPI, sparkUser, "lake.item").
		Filter(biglake.Predicate{Column: "i_category", Op: vector.EQ, Value: biglake.StringValue("Books")})
	joined, err := fact.Join(item, "item_sk", "i_item_sk").Collect()
	must(err)
	fmt.Printf("read api join:    %d rows, first email %q  <- masked at the boundary\n",
		joined.N, joined.Column("buyer_email").Value(0).S)
	fmt.Printf("planner counters: dpp_applied=%d read_sessions=%d readapi_bytes=%d\n",
		smart.Obs.Get("sparkle.dpp_applied"), smart.Obs.Get("sparkle.read_sessions"), smart.Obs.Get("sparkle.readapi_bytes"))

	// Path 3: aggregate pushdown — the server computes partials and
	// ships a tiny payload (§3.4 future work, implemented).
	sess, err := lh.StorageAPI.CreateReadSession(biglake.ReadSessionRequest{
		Table: "lake.fact", Principal: sparkUser,
		Aggregates: []biglake.AggregateRequest{{Column: "qty", Kind: vector.AggSum}},
	})
	must(err)
	agg, err := lh.StorageAPI.ReadAll(sess)
	must(err)
	fmt.Printf("aggregate pushdown: SUM(qty) = %v computed server-side\n", agg.Row(0)[0])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
