// Package core assembles the BigLake lakehouse: it wires the catalog,
// IAM authority, Big Metadata, the Dremel engine, the Storage APIs,
// the BLMT manager and the BQML inference runtime into one coherent
// deployment object — the "single core platform that solves the
// difficult data management problems once, but has it work across
// storage substrates and analytics stacks" of §3.
package core

import (
	"fmt"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/inference"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/storageapi"
	"biglake/internal/txn"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

// Options configures a lakehouse deployment.
type Options struct {
	// Cloud names the hosting cloud ("gcp" default).
	Cloud string
	// Region is the deployment region name.
	Region string
	// Admin is the deployment administrator principal.
	Admin security.Principal
	// Engine tunes query execution (defaults to production settings).
	Engine *engine.Options
}

// Lakehouse is a single-region BigLake deployment.
type Lakehouse struct {
	Clock      *sim.Clock
	Catalog    *catalog.Catalog
	Auth       *security.Authority
	Meta       *bigmeta.Cache
	Log        *bigmeta.Log
	Engine     *engine.Engine
	StorageAPI *storageapi.Server
	Manager    *blmt.Manager
	Inference  *inference.Runtime
	Store      *objstore.Store
	Journal    *wal.Journal
	Txns       *txn.Manager
	Admin      security.Principal

	cloud     string
	serviceSA objstore.Credential
	querySeq  int
	sessions  map[security.Principal]*txn.Session
}

// New builds a ready-to-use lakehouse.
func New(opts Options) (*Lakehouse, error) {
	if opts.Cloud == "" {
		opts.Cloud = "gcp"
	}
	if opts.Region == "" {
		opts.Region = opts.Cloud + "-us"
	}
	if opts.Admin == "" {
		opts.Admin = "admin@biglake"
	}
	engOpts := engine.DefaultOptions()
	if opts.Engine != nil {
		engOpts = *opts.Engine
	}

	clock := sim.NewClock()
	store := objstore.New(sim.ProfileFor(opts.Cloud), clock)
	sa := objstore.Credential{Principal: "sa-biglake@" + opts.Region}
	if err := store.CreateBucket(sa, "bq-managed"); err != nil {
		return nil, err
	}
	cat := catalog.New()
	auth := security.NewAuthority("lakehouse-"+opts.Region, opts.Admin)
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	stores := map[string]*objstore.Store{opts.Cloud: store}

	eng := engine.New(cat, auth, meta, log, clock, stores, engOpts)
	eng.ManagedCred = sa
	srv := storageapi.NewServer(cat, auth, meta, log, clock, stores)
	srv.ManagedCred = sa
	mgr := blmt.New(cat, auth, log, clock, stores)
	mgr.DefaultCloud = opts.Cloud
	mgr.DefaultBucket = "bq-managed"
	eng.SetMutator(mgr)
	j, err := wal.Open(store, sa, "bq-managed", "")
	if err != nil {
		return nil, err
	}
	log.AttachJournal(j)
	mgr.Journal = j
	rt := inference.NewRuntime(auth, stores, clock, sa)
	rt.Attach(eng)

	lh := &Lakehouse{
		Clock: clock, Catalog: cat, Auth: auth, Meta: meta, Log: log,
		Engine: eng, StorageAPI: srv, Manager: mgr, Inference: rt,
		Store: store, Journal: j, Txns: txn.NewManager(eng, j),
		Admin: opts.Admin, cloud: opts.Cloud, serviceSA: sa,
		sessions: make(map[security.Principal]*txn.Session),
	}
	// A default connection for managed tables and examples.
	if err := auth.RegisterConnection(opts.Admin, security.Connection{
		Name: "default", ServiceAccount: sa, Cloud: opts.Cloud,
	}); err != nil {
		return nil, err
	}
	mgr.DefaultConnection = "default"
	if err := cat.CreateDataset(catalog.Dataset{Name: "_system", Region: opts.Region, Cloud: opts.Cloud}); err != nil {
		return nil, err
	}
	return lh, nil
}

// Cloud returns the hosting cloud name.
func (lh *Lakehouse) Cloud() string { return lh.cloud }

// ServiceAccount returns the deployment's default delegated service
// account credential.
func (lh *Lakehouse) ServiceAccount() objstore.Credential { return lh.serviceSA }

// CreateDataset registers a dataset in the hosting region.
func (lh *Lakehouse) CreateDataset(name string) error {
	return lh.Catalog.CreateDataset(catalog.Dataset{Name: name, Region: lh.cloud + "-us", Cloud: lh.cloud})
}

// CreateBucket provisions a customer bucket readable by the default
// connection.
func (lh *Lakehouse) CreateBucket(name string) error {
	return lh.Store.CreateBucket(lh.serviceSA, name)
}

// CreateConnection provisions a delegated-access connection with a
// fresh service account (§3.1) and grants it read access to the named
// buckets.
func (lh *Lakehouse) CreateConnection(name string, buckets ...string) (security.Connection, error) {
	sa := objstore.Credential{Principal: fmt.Sprintf("sa-%s@biglake", name)}
	conn := security.Connection{Name: name, ServiceAccount: sa, Cloud: lh.cloud}
	if err := lh.Auth.RegisterConnection(lh.Admin, conn); err != nil {
		return security.Connection{}, err
	}
	for _, b := range buckets {
		if err := lh.Store.Grant(lh.serviceSA, b, sa.Principal, objstore.PermRead); err != nil {
			return security.Connection{}, err
		}
	}
	return conn, nil
}

// BigLakeTableSpec describes a BigLake table over open-format files.
type BigLakeTableSpec struct {
	Dataset, Name   string
	Schema          vector.Schema
	Bucket, Prefix  string
	Connection      string
	PartitionColumn string
	// MetadataCaching enables §3.3 acceleration (default true via
	// CreateBigLakeTable).
	MetadataCaching bool
	// MetadataStaleness bounds cache age before an automatic
	// background refresh (0 = on demand only).
	MetadataStaleness time.Duration
}

// CreateBigLakeTable registers a BigLake table and grants the creator
// ownership.
func (lh *Lakehouse) CreateBigLakeTable(creator security.Principal, spec BigLakeTableSpec) error {
	if spec.Connection == "" {
		spec.Connection = "default"
	}
	t := catalog.Table{
		Dataset: spec.Dataset, Name: spec.Name, Type: catalog.BigLake,
		Schema: spec.Schema, Cloud: lh.cloud, Bucket: spec.Bucket, Prefix: spec.Prefix,
		Connection: spec.Connection, PartitionColumn: spec.PartitionColumn,
		MetadataCaching: spec.MetadataCaching, MetadataStaleness: spec.MetadataStaleness,
		CreatedAt: lh.Clock.Now(),
	}
	if err := lh.Catalog.CreateTable(t); err != nil {
		return err
	}
	return lh.Auth.GrantTable(lh.Admin, t.FullName(), creator, security.RoleOwner)
}

// CreateManagedTable registers a BLMT storing data on a customer
// bucket (§3.5).
func (lh *Lakehouse) CreateManagedTable(creator security.Principal, dataset, name string, schema vector.Schema, bucket string) error {
	t := catalog.Table{
		Dataset: dataset, Name: name, Type: catalog.Managed,
		Schema: schema, Cloud: lh.cloud, Bucket: bucket,
		Prefix:     fmt.Sprintf("blmt/%s/%s/", dataset, name),
		Connection: "default", CreatedAt: lh.Clock.Now(),
	}
	if err := lh.Catalog.CreateTable(t); err != nil {
		return err
	}
	return lh.Auth.GrantTable(lh.Admin, t.FullName(), creator, security.RoleOwner)
}

// CreateObjectTable registers an Object table over a bucket prefix of
// unstructured objects (§4.1).
func (lh *Lakehouse) CreateObjectTable(creator security.Principal, dataset, name, bucket, prefix string) error {
	t := catalog.Table{
		Dataset: dataset, Name: name, Type: catalog.Object,
		Cloud: lh.cloud, Bucket: bucket, Prefix: prefix,
		Connection: "default", MetadataCaching: true, CreatedAt: lh.Clock.Now(),
	}
	if err := lh.Catalog.CreateTable(t); err != nil {
		return err
	}
	return lh.Auth.GrantTable(lh.Admin, t.FullName(), creator, security.RoleOwner)
}

// Query runs SQL as a principal. BEGIN opens an interactive
// transaction for that principal; until it commits or rolls back,
// the principal's statements run inside the session — reads pinned to
// the BEGIN-time snapshot, writes buffered until COMMIT seals them
// atomically across every table touched.
func (lh *Lakehouse) Query(p security.Principal, sql string) (*engine.Result, error) {
	lh.querySeq++
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if s := lh.sessions[p]; s != nil {
		res, err := s.Exec(sql)
		if !s.Active() {
			delete(lh.sessions, p)
		}
		return res, err
	}
	if _, ok := stmt.(*sqlparse.BeginStmt); ok {
		s := lh.Txns.Begin(p, fmt.Sprintf("q-%d", lh.querySeq))
		lh.sessions[p] = s
		out := vector.MustBatch(vector.NewSchema(vector.Field{Name: "snapshot_version", Type: vector.Int64}),
			[]*vector.Column{vector.NewInt64Column([]int64{s.Snapshot()})})
		return &engine.Result{Batch: out}, nil
	}
	return lh.Engine.Query(engine.NewContext(p, fmt.Sprintf("q-%d", lh.querySeq)), sql)
}

// RefreshMetadataCache rebuilds the §3.3 cache for a table in the
// background.
func (lh *Lakehouse) RefreshMetadataCache(table string) (int, error) {
	t, err := lh.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	conn, err := lh.Auth.Connection(t.Connection)
	if err != nil {
		return 0, err
	}
	return lh.Meta.Refresh(table, lh.Store, conn.ServiceAccount, t.Bucket, t.Prefix, bigmeta.RefreshOptions{
		WithFileStats: t.Type != catalog.Object,
		Background:    true,
	})
}

// Upload writes an object through the default service account (a
// loader convenience for examples and tests).
func (lh *Lakehouse) Upload(bucket, key string, data []byte, contentType string) error {
	_, err := lh.Store.Put(lh.serviceSA, bucket, key, data, contentType)
	return err
}

// Now returns the deployment's simulated time.
func (lh *Lakehouse) Now() time.Duration { return lh.Clock.Now() }
