// CrossCloud: the §5 Omni story — a GCP control plane with an AWS data
// plane, the Listing 3 cross-cloud join (with filter pushdown and
// metered egress), the per-query security machinery (session tokens,
// untrusted proxy, scoped credentials, security realms), and a
// cross-cloud materialized view refreshed incrementally.
package main

import (
	"fmt"
	"log"
	"time"

	"biglake"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/omni"
	"biglake/internal/vector"
)

const analyst = biglake.Principal("analyst@corp")

func main() {
	dep := biglake.NewMultiCloud("admin@corp")
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	must(err)
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	must(err)
	fmt.Printf("deployed regions: %s (primary/control plane), %s (data plane over VPN)\n", gcp.Name, aws.Name)

	// Listing 3's tables: ads on GCP, orders on AWS.
	must(seed(dep, gcp, aws))

	// A single SQL statement joining across clouds.
	res, err := dep.Submit(analyst, `SELECT o.order_id, o.order_total, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
		WHERE o.order_total > 270.0`)
	must(err)
	egress := func() int64 { return dep.Obs.Get("omni.egress_bytes") }
	fmt.Printf("\nlisting 3 cross-cloud join: %d rows; vpn egress: %d bytes\n", res.Batch.N, egress())

	// The same query without pushdown ships the whole remote table.
	before := egress()
	_, err = dep.SubmitWith(analyst, `SELECT o.order_id, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
		WHERE o.order_total > 270.0`, omni.SubmitOptions{DisablePushdown: true})
	must(err)
	fmt.Printf("without pushdown:           vpn egress: %d bytes\n", egress()-before)

	// Per-query security: a tampered session token is rejected by the
	// untrusted proxy; a scoped credential cannot escape its paths.
	tok := dep.Auth.MintToken("demo-q", analyst, aws.Name,
		[]string{"aws_dataset.customer_orders"}, dep.Clock.Now()+5*time.Minute)
	tok.Tables = append(tok.Tables, "local_dataset.ads_impressions") // compromised worker widens scope
	err = dep.Proxy().Authorize(tok, aws.Name, "svc-aws-us-east-1@omni", "local_dataset.ads_impressions")
	fmt.Printf("\ntampered session token: %v\n", err)

	// Cross-cloud materialized view: incremental replication.
	mv, err := dep.CreateCCMV("orders_mv", "aws_dataset.customer_orders", gcp.Name)
	must(err)
	rep, err := dep.Refresh(mv, true)
	must(err)
	fmt.Printf("\nccmv initial refresh: %d files, %d bytes copied cross-cloud\n", rep.FilesCopied, rep.BytesCopied)

	// Small source change -> tiny incremental refresh.
	bo := vector.NewBuilder(ordersSchema())
	bo.Append(biglake.IntValue(9999), biglake.IntValue(3), biglake.FloatValue(42))
	must(aws.Manager.Insert(engine.NewContext("admin@corp", "late"), "aws_dataset.customer_orders", bo.Build()))
	rep, err = dep.Refresh(mv, true)
	must(err)
	fmt.Printf("ccmv incremental refresh after 1 insert: %d files, %d bytes\n", rep.FilesCopied, rep.BytesCopied)

	// The replica is a first-class local table.
	must(dep.GrantReplicaAccess(mv, analyst))
	res, err = dep.Submit(analyst, "SELECT COUNT(*) AS n FROM "+mv.Replica)
	must(err)
	fmt.Printf("replica row count in %s: %v\n", gcp.Name, res.Batch.Row(0)[0])
}

func ordersSchema() biglake.Schema {
	return biglake.NewSchema(
		biglake.Field{Name: "order_id", Type: biglake.Int64},
		biglake.Field{Name: "customer_id", Type: biglake.Int64},
		biglake.Field{Name: "order_total", Type: biglake.Float64},
	)
}

func seed(dep *biglake.Deployment, gcp, aws *biglake.Region) error {
	adsSchema := biglake.NewSchema(
		biglake.Field{Name: "id", Type: biglake.Int64},
		biglake.Field{Name: "customer_id", Type: biglake.Int64},
	)
	if err := dep.Catalog.CreateDataset(catalog.Dataset{Name: "local_dataset", Region: gcp.Name, Cloud: gcp.Cloud}); err != nil {
		return err
	}
	if err := dep.Catalog.CreateDataset(catalog.Dataset{Name: "aws_dataset", Region: aws.Name, Cloud: aws.Cloud}); err != nil {
		return err
	}
	if err := dep.Catalog.CreateTable(catalog.Table{
		Dataset: "local_dataset", Name: "ads_impressions", Type: catalog.Managed,
		Schema: adsSchema, Cloud: gcp.Cloud, Bucket: gcp.Manager.DefaultBucket,
		Prefix: "blmt/ads/", Connection: "omni-" + gcp.Name,
	}); err != nil {
		return err
	}
	if err := dep.Catalog.CreateTable(catalog.Table{
		Dataset: "aws_dataset", Name: "customer_orders", Type: catalog.Managed,
		Schema: ordersSchema(), Cloud: aws.Cloud, Bucket: aws.Manager.DefaultBucket,
		Prefix: "blmt/orders/", Connection: "omni-" + aws.Name,
	}); err != nil {
		return err
	}
	for _, tbl := range []string{"local_dataset.ads_impressions", "aws_dataset.customer_orders"} {
		if err := dep.Auth.GrantTable(omni.ControlPrincipal, tbl, analyst, biglake.RoleViewer); err != nil {
			return err
		}
		if err := dep.Auth.GrantTable(omni.ControlPrincipal, tbl, "admin@corp", biglake.RoleOwner); err != nil {
			return err
		}
	}
	ctx := engine.NewContext("admin@corp", "seed")
	bl := vector.NewBuilder(adsSchema)
	for i := 0; i < 50; i++ {
		bl.Append(biglake.IntValue(int64(i)), biglake.IntValue(int64(i%20)))
	}
	if err := gcp.Manager.Insert(ctx, "local_dataset.ads_impressions", bl.Build()); err != nil {
		return err
	}
	bo := vector.NewBuilder(ordersSchema())
	for i := 0; i < 200; i++ {
		bo.Append(biglake.IntValue(int64(i)), biglake.IntValue(int64(i%20)), biglake.FloatValue(float64(i)*1.5))
	}
	return aws.Manager.Insert(ctx, "aws_dataset.customer_orders", bo.Build())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
