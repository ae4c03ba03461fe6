package exp

import (
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/omni"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
	"biglake/internal/workload"
)

// TestRegisteredMetricNamesDocumented is the runtime half of obslint:
// obslint sees only literal Counter/Gauge/Histogram names, so names
// that reach a registry through a Prefixed sink (the resilience policy
// counters) escape it. This drives a small environment through the
// query, Read API, and Write API commit paths and an Omni deployment
// through a cross-cloud query, then requires every name in both
// shared registries to appear backticked in DESIGN.md. The dynamic
// serve.tenant.<principal>.* family is exempt.
func TestRegisteredMetricNamesDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names := registeredNames(metricWorldEnv(t), metricWorldOmni(t))
	var missing []string
	prefixed := false
	for _, name := range names {
		prefixed = prefixed || name == "resilience.retries"
		if strings.HasPrefix(name, "serve.tenant.") {
			continue
		}
		if !strings.Contains(string(design), "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	if !prefixed {
		t.Fatalf("no retry was counted; the world no longer exercises the Prefixed path: %v", names)
	}
	if len(missing) > 0 {
		t.Fatalf("metric names missing from DESIGN.md's metric name reference:\n  %s", strings.Join(missing, "\n  "))
	}
}

// registeredNames lists every counter, gauge, and histogram name in
// the registries, sorted and deduplicated.
func registeredNames(regs ...*obs.Registry) []string {
	seen := map[string]bool{}
	for _, r := range regs {
		snap := r.Snapshot()
		for n := range snap.Counters {
			seen[n] = true
		}
		for n := range snap.Gauges {
			seen[n] = true
		}
		for n := range snap.Histograms {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricWorldEnv runs the TPC-H queries, a Read API session, a Write
// API commit into a managed table, and a system-table read under light fault injection, and
// returns the environment's shared registry.
func metricWorldEnv(t *testing.T) *obs.Registry {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	env, err := NewEnv(engine.DefaultOptions())
	check(err)
	check(workload.LoadTPCH(env.WEnv, workload.DefaultTPCH(1)))
	// One transient fault and slow reads exercise the retry and hedge
	// counters, which reach the registry through a Prefixed sink.
	env.Store.FailNext(1)
	env.Store.InjectFaults(objstore.FaultProfile{Seed: 1, SlowdownRate: 0.5, Slowdown: 300 * time.Millisecond})
	query := func(sql string) *engine.Result {
		t.Helper()
		res, err := env.Engine.Query(engine.NewContext(Admin, "names"), sql)
		check(err)
		return res
	}
	for _, q := range workload.TPCHQueries("bench") {
		query(q.SQL)
	}

	sess, err := env.Server.CreateReadSession(storageapi.ReadSessionRequest{Table: "bench.lineitem", Principal: Admin})
	check(err)
	_, err = env.Server.ReadAll(sess)
	check(err)

	check(env.Cat.CreateTable(catalog.Table{Dataset: "bench", Name: "orders_w", Type: catalog.Managed,
		Schema: workload.OrdersSchema(), Cloud: "gcp", Bucket: "bench", Prefix: "blmt/orders_w/", Connection: "conn"}))
	id, err := env.Server.CreateWriteStream(string(Admin), "bench.orders_w", storageapi.PendingMode)
	check(err)
	_, err = env.Server.AppendRows(id, 0, query(`SELECT * FROM bench.orders LIMIT 5`).Batch)
	check(err)
	_, err = env.Server.FinalizeStream(id)
	check(err)
	check(env.Server.BatchCommitStreams([]string{id}))

	query(`SELECT COUNT(*) AS n FROM bench.orders_w`)
	query(`SELECT name, value FROM system.metrics`)
	return env.Obs
}

// metricWorldOmni runs the Listing 3 cross-cloud join on a two-region
// deployment, returning the deployment-wide registry.
func metricWorldOmni(t *testing.T) *obs.Registry {
	t.Helper()
	dep := omni.NewDeployment(sim.NewClock(), Admin)
	gcp, err := dep.AddRegion("gcp-us", "gcp")
	if err != nil {
		t.Fatal(err)
	}
	aws, err := dep.AddRegion("aws-us-east-1", "aws")
	if err != nil {
		t.Fatal(err)
	}
	if err := seedListing3(dep, gcp, aws, 20, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Submit(Admin, `SELECT o.order_id, ads.id
		FROM local_dataset.ads_impressions AS ads
		JOIN aws_dataset.customer_orders AS o ON o.customer_id = ads.customer_id
		WHERE o.order_total > 30.0`); err != nil {
		t.Fatal(err)
	}
	return dep.Obs
}
