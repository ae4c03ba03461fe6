// Package blmt implements BigLake Managed Tables (§3.5): fully managed
// tables storing open-format data files on customer-owned buckets
// while keeping metadata in the Big Metadata transaction log. BLMTs
// support DML (through the engine's Mutator interface), streaming
// ingest (via the Write API, which commits to the same log),
// background storage optimization — adaptive file sizing, clustering,
// coalescing, and garbage collection — and Iceberg snapshot export so
// any Iceberg-capable engine can query the data directly.
package blmt

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/crashpoint"
	"biglake/internal/engine"
	"biglake/internal/iceberg"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

// ErrNotManaged reports DML against a non-managed table.
var ErrNotManaged = errors.New("blmt: table is not managed")

// TargetFileBytes is the adaptive-file-sizing target: background
// coalescing merges files until they approach this size.
const TargetFileBytes = 4 * sim.MB

// Manager owns the managed-table lifecycle for one deployment and
// implements engine.Mutator.
type Manager struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Stores  map[string]*objstore.Store

	// CTAS defaults: where CREATE TABLE AS SELECT materializes new
	// managed tables.
	DefaultCloud      string
	DefaultBucket     string
	DefaultConnection string

	// AutoIceberg exports an Iceberg snapshot asynchronously after
	// every commit (the §3.5 "future" behaviour, implemented).
	AutoIceberg bool

	// Res is the retry policy for data-file reads/writes and the
	// Iceberg export commit CAS. Nil behaves like resilience.NoRetry.
	Res *resilience.Policy
	// Obs is the registry the manager counts into: its policy's
	// "resilience.*" retries and the "blmt.repair_*" outcomes.
	Obs *obs.Registry

	// Journal, when set, opens a durable intent before every DML /
	// compaction transaction's data-file PUTs, so a crash mid-protocol
	// leaves reclaimable debris instead of invisible orphans. The same
	// journal must be attached to Log as its commit sink.
	Journal *wal.Journal
	// Crash marks the DML/compaction/export crash points (nil = none).
	Crash *crashpoint.Injector

	seq int64
}

// dmlTxn derives the idempotency ID for one DML operation of one
// query. The envelope only exists under a durable journal — without
// one there is nothing for a recovered process to replay against, and
// treating a reused query ID as a replay would surprise callers that
// never opted into journaling. Queries without an ID likewise get no
// envelope (and no crash-exactly-once guarantee); their commits are
// still journaled.
func (m *Manager) dmlTxn(queryID, op, table string) string {
	if m.Journal == nil || queryID == "" {
		return ""
	}
	return fmt.Sprintf("q-%s-%s-%s", queryID, op, table)
}

// sanitizeTxn makes a txn ID usable inside an object key.
func sanitizeTxn(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == '/' || c == ':' {
			out[i] = '-'
		}
	}
	return string(out)
}

// txDataKey is the deterministic key of the idx-th data file a
// transaction writes. Retried transactions re-mint identical keys and
// overwrite their crashed predecessor's files instead of stranding
// them; keys never derive from in-memory counters, which reset across
// recovery.
func txDataKey(t catalog.Table, txnID string, idx int) string {
	return fmt.Sprintf("%sdata/%s-%06d.blk", t.Prefix, sanitizeTxn(txnID), idx)
}

// intent durably declares a transaction's data-file keys before any
// PUT. No-op without a journal or txn ID.
func (m *Manager) intent(txnID, principal string, keys []string) (int64, error) {
	if m.Journal == nil || txnID == "" {
		return 0, nil
	}
	return m.Journal.AppendIntent(txnID, principal, keys)
}

var _ engine.Mutator = (*Manager)(nil)

// New assembles a Manager.
func New(cat *catalog.Catalog, auth *security.Authority, log *bigmeta.Log, clock *sim.Clock, stores map[string]*objstore.Store) *Manager {
	reg := obs.NewRegistry()
	res := resilience.DefaultPolicy()
	res.Meter = reg.Prefixed("resilience.")
	return &Manager{Catalog: cat, Auth: auth, Log: log, Clock: clock, Stores: stores, Res: res, Obs: reg}
}

func (m *Manager) store(cloud string) (*objstore.Store, error) {
	st, ok := m.Stores[cloud]
	if !ok {
		return nil, fmt.Errorf("blmt: no object store for cloud %q", cloud)
	}
	return st, nil
}

func (m *Manager) credFor(t catalog.Table) (objstore.Credential, error) {
	conn, err := m.Auth.Connection(t.Connection)
	if err != nil {
		return objstore.Credential{}, err
	}
	return conn.ServiceAccount, nil
}

func (m *Manager) managedTable(name string) (catalog.Table, *objstore.Store, objstore.Credential, error) {
	t, err := m.Catalog.Table(name)
	if err != nil {
		return catalog.Table{}, nil, objstore.Credential{}, err
	}
	if t.Type != catalog.Managed && t.Type != catalog.Native {
		return catalog.Table{}, nil, objstore.Credential{}, fmt.Errorf("%w: %s is %v", ErrNotManaged, name, t.Type)
	}
	store, err := m.store(t.Cloud)
	if err != nil {
		return catalog.Table{}, nil, objstore.Credential{}, err
	}
	cred, err := m.credFor(t)
	if err != nil {
		return catalog.Table{}, nil, objstore.Credential{}, err
	}
	return t, store, cred, nil
}

// writeDataFile materializes a batch as one data file and returns its
// metadata entry. The PUT retries under the manager's policy against
// bud (nil = no per-query budget).
func (m *Manager) writeDataFile(t catalog.Table, store *objstore.Store, cred objstore.Credential, bud *resilience.Budget, rows *vector.Batch, tag string) (bigmeta.FileEntry, error) {
	m.seq++
	key := fmt.Sprintf("%sdata/%s-%06d.blk", t.Prefix, tag, m.seq)
	return m.writeDataFileAt(t, store, cred, bud, rows, key)
}

// writeDataFileAt is writeDataFile with an explicit (deterministic)
// key — the crash-consistent path, bracketed by blmt.before_put /
// blmt.after_put crash points.
func (m *Manager) writeDataFileAt(t catalog.Table, store *objstore.Store, cred objstore.Credential, bud *resilience.Budget, rows *vector.Batch, key string) (bigmeta.FileEntry, error) {
	file, err := colfmt.WriteFile(rows, colfmt.WriterOptions{})
	if err != nil {
		return bigmeta.FileEntry{}, err
	}
	m.Crash.At("blmt.before_put")
	var info objstore.ObjectInfo
	if err := m.Res.Do(m.Clock, bud, "PUT "+t.Bucket+"/"+key, func() error {
		var pe error
		info, pe = store.Put(cred, t.Bucket, key, file, "application/x-blk")
		return pe
	}); err != nil {
		return bigmeta.FileEntry{}, err
	}
	m.Crash.At("blmt.after_put")
	footer, err := colfmt.ReadFooter(file)
	if err != nil {
		return bigmeta.FileEntry{}, err
	}
	stats := make(map[string]colfmt.ColumnStats)
	for _, f := range footer.Fields {
		if st, ok := footer.ColumnStatsFor(f.Name); ok {
			stats[f.Name] = st
		}
	}
	return bigmeta.FileEntry{
		Bucket: t.Bucket, Key: key, Size: info.Size,
		Generation: info.Generation,
		RowCount:   footer.Rows, ColumnStats: stats,
	}, nil
}

func (m *Manager) commit(principal string, table string, tx bigmeta.TxOptions, delta bigmeta.TableDelta, t catalog.Table) error {
	if _, err := m.Log.CommitTx(principal, tx, map[string]bigmeta.TableDelta{table: delta}); err != nil {
		return err
	}
	m.Crash.At("blmt.after_commit")
	if m.AutoIceberg && t.Type == catalog.Managed {
		// The export publishes *after* the sealed log commit, so the
		// version hint only ever points at sealed versions; a crash
		// anywhere in here leaves a stale hint that the recovery
		// re-export converges.
		if _, err := m.ExportIceberg(table); err != nil {
			return fmt.Errorf("blmt: auto iceberg export: %w", err)
		}
	}
	return nil
}

// Insert appends rows to a managed table (engine.Mutator). The
// protocol is crash-consistent: durable intent → data PUT at a
// txn-derived key → sealed commit; a replay of an already-sealed
// insert (same query ID) is an exact no-op.
func (m *Manager) Insert(ctx *engine.QueryContext, table string, rows *vector.Batch) error {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return err
	}
	txnID := m.dmlTxn(ctx.QueryID, "ins", table)
	if _, done := m.Log.AppliedTx(txnID); done {
		return nil
	}
	// Align inserted columns with the declared schema (missing
	// columns become NULL).
	aligned, err := AlignToSchema(rows, t.Schema)
	if err != nil {
		return err
	}
	var entry bigmeta.FileEntry
	var intentSeq int64
	if txnID != "" {
		key := txDataKey(t, txnID, 0)
		if intentSeq, err = m.intent(txnID, string(ctx.Principal), []string{key}); err != nil {
			return err
		}
		entry, err = m.writeDataFileAt(t, store, cred, ctx.Budget, aligned, key)
	} else {
		entry, err = m.writeDataFile(t, store, cred, ctx.Budget, aligned, "insert")
	}
	if err != nil {
		return err
	}
	return m.commit(string(ctx.Principal), table,
		bigmeta.TxOptions{TxnID: txnID, IntentSeq: intentSeq},
		bigmeta.TableDelta{Added: []bigmeta.FileEntry{entry}}, t)
}

// AlignToSchema aligns a batch's columns with a declared table schema:
// matching columns are type-checked, missing columns become all-NULL.
// Shared with internal/txn, whose buffered writes must align exactly
// like a direct insert.
func AlignToSchema(rows *vector.Batch, schema vector.Schema) (*vector.Batch, error) {
	if rows.Schema.Equal(schema) {
		return rows, nil
	}
	cols := make([]*vector.Column, schema.Len())
	for i, f := range schema.Fields {
		if j := rows.Schema.Index(f.Name); j >= 0 {
			c := rows.Cols[j]
			if c.Type != f.Type {
				return nil, fmt.Errorf("blmt: column %q type %v != declared %v", f.Name, c.Type, f.Type)
			}
			cols[i] = c
			continue
		}
		// Missing column: all NULL.
		null := &vector.Column{Type: f.Type, Len: rows.N, Enc: vector.Plain, Nulls: make([]bool, rows.N)}
		for k := range null.Nulls {
			null.Nulls[k] = true
		}
		switch f.Type {
		case vector.Int64, vector.Timestamp:
			null.Ints = make([]int64, rows.N)
		case vector.Float64:
			null.Floats = make([]float64, rows.N)
		case vector.Bool:
			null.Bools = make([]bool, rows.N)
		case vector.String, vector.Bytes:
			null.Strs = make([]string, rows.N)
		}
		cols[i] = null
	}
	return vector.NewBatch(schema, cols)
}

// rewrite applies a per-file transform: files whose transform returns
// a nil batch are dropped; non-nil batches replace the file
// (copy-on-write DML).
func (m *Manager) rewrite(ctx *engine.QueryContext, table, tag string, transform func(*vector.Batch) (*vector.Batch, bool, error)) (int64, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return 0, err
	}
	txnID := m.dmlTxn(ctx.QueryID, tag, table)
	if _, done := m.Log.AppliedTx(txnID); done {
		// A crashed predecessor sealed this DML; re-running the (often
		// non-idempotent) transform would double-apply it.
		return 0, nil
	}
	files, _, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return 0, err
	}
	// Phase 1 — read and transform everything before writing anything,
	// so the full set of output keys is known for the journal intent.
	var delta bigmeta.TableDelta
	var outs []*vector.Batch
	var affected int64
	for _, f := range files {
		var data []byte
		if err := m.Res.Do(m.Clock, ctx.Budget, "GET "+f.Bucket+"/"+f.Key, func() error {
			var ge error
			data, _, ge = store.Get(cred, f.Bucket, f.Key)
			return ge
		}); err != nil {
			return 0, err
		}
		r, err := colfmt.NewVectorizedReader(data, nil, nil)
		if err != nil {
			return 0, err
		}
		batch, err := r.ReadAll()
		if err != nil {
			return 0, err
		}
		out, changed, err := transform(batch)
		if err != nil {
			return 0, err
		}
		if !changed {
			continue
		}
		affected += int64(batch.N)
		if out != nil {
			affected -= int64(out.N)
		}
		delta.Removed = append(delta.Removed, f.Key)
		if out != nil && out.N > 0 {
			outs = append(outs, out)
		}
	}
	if len(delta.Removed) == 0 && len(outs) == 0 {
		return 0, nil
	}
	// Phase 2 — declare every output key durably, then PUT at those
	// deterministic keys (a retry overwrites its crashed predecessor).
	var keys []string
	if txnID != "" {
		for i := range outs {
			keys = append(keys, txDataKey(t, txnID, i))
		}
	}
	intentSeq, err := m.intent(txnID, string(ctx.Principal), keys)
	if err != nil {
		return 0, err
	}
	for i, out := range outs {
		var entry bigmeta.FileEntry
		if txnID != "" {
			entry, err = m.writeDataFileAt(t, store, cred, ctx.Budget, out, keys[i])
		} else {
			entry, err = m.writeDataFile(t, store, cred, ctx.Budget, out, tag)
		}
		if err != nil {
			return 0, err
		}
		delta.Added = append(delta.Added, entry)
	}
	// Phase 3 — one sealed commit swaps old files for new atomically.
	if err := m.commit(string(ctx.Principal), table,
		bigmeta.TxOptions{TxnID: txnID, IntentSeq: intentSeq}, delta, t); err != nil {
		return 0, err
	}
	return affected, nil
}

// Delete removes rows matching where (engine.Mutator).
func (m *Manager) Delete(ctx *engine.QueryContext, table string, where func(*vector.Batch) ([]bool, error)) (int64, error) {
	return m.rewrite(ctx, table, "delete", func(b *vector.Batch) (*vector.Batch, bool, error) {
		mask, err := where(b)
		if err != nil {
			return nil, false, err
		}
		n := vector.CountMask(mask)
		if n == 0 {
			return nil, false, nil
		}
		kept, err := vector.Filter(b, vector.Not(mask))
		if err != nil {
			return nil, false, err
		}
		return kept, true, nil
	})
}

// Update rewrites rows matching where with set applied
// (engine.Mutator).
func (m *Manager) Update(ctx *engine.QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error) {
	var updated int64
	_, err := m.rewrite(ctx, table, "update", func(b *vector.Batch) (*vector.Batch, bool, error) {
		mask, err := where(b)
		if err != nil {
			return nil, false, err
		}
		n := vector.CountMask(mask)
		if n == 0 {
			return nil, false, nil
		}
		updated += int64(n)
		transformed, err := set(b)
		if err != nil {
			return nil, false, err
		}
		out, err := MergeMasked(b, transformed, mask)
		if err != nil {
			return nil, false, err
		}
		return out, true, nil
	})
	return updated, err
}

// MergeMasked merges two same-schema batches row-wise: masked rows
// come from upd, others from orig — the UPDATE copy-on-write merge.
// Shared with internal/txn, whose buffered updates merge identically.
func MergeMasked(orig, upd *vector.Batch, mask []bool) (*vector.Batch, error) {
	cols := make([]*vector.Column, len(orig.Cols))
	for ci := range orig.Cols {
		o, u := orig.Cols[ci].Decode(), upd.Cols[ci].Decode()
		builder := vector.NewBuilder(vector.NewSchema(orig.Schema.Fields[ci]))
		for r := 0; r < orig.N; r++ {
			if mask[r] {
				builder.Append(u.Value(r))
			} else {
				builder.Append(o.Value(r))
			}
		}
		cols[ci] = builder.Build().Cols[0]
	}
	return vector.NewBatch(orig.Schema, cols)
}

// CreateTableAs materializes a query result as a new managed table
// (engine.Mutator).
func (m *Manager) CreateTableAs(ctx *engine.QueryContext, table string, orReplace bool, rows *vector.Batch) error {
	if _, err := m.Catalog.Table(table); err == nil {
		if !orReplace {
			return fmt.Errorf("%w: table %q", catalog.ErrAlreadyExists, table)
		}
		if err := m.Catalog.DropTable(table); err != nil {
			return err
		}
		// Retire the replaced table's files from the log so the new
		// table starts empty.
		if old, _, err := m.Log.Snapshot(table, -1); err == nil && len(old) > 0 {
			removed := make([]string, len(old))
			for i, f := range old {
				removed[i] = f.Key
			}
			if _, err := m.Log.CommitTx(string(ctx.Principal),
				bigmeta.TxOptions{TxnID: m.dmlTxn(ctx.QueryID, "retire", table)},
				map[string]bigmeta.TableDelta{table: {Removed: removed}}); err != nil {
				return err
			}
		}
	}
	dot := -1
	for i, c := range table {
		if c == '.' {
			dot = i
		}
	}
	if dot < 0 {
		return fmt.Errorf("blmt: CTAS target %q must be dataset.table", table)
	}
	t := catalog.Table{
		Dataset: table[:dot], Name: table[dot+1:], Type: catalog.Managed,
		Schema: rows.Schema, Cloud: m.DefaultCloud, Bucket: m.DefaultBucket,
		Prefix:     fmt.Sprintf("blmt/%s/%s/", table[:dot], table[dot+1:]),
		Connection: m.DefaultConnection,
		CreatedAt:  m.Clock.Now(),
	}
	if err := m.Catalog.CreateTable(t); err != nil {
		return err
	}
	// Creator becomes owner.
	if err := m.Auth.GrantTable(ctx.Principal, table, ctx.Principal, security.RoleOwner); err != nil {
		// Non-admin creators: have an admin bootstrap handled by core;
		// grant through the authority's admin if the principal cannot.
		return err
	}
	if rows.N == 0 {
		return nil
	}
	return m.Insert(ctx, table, rows)
}

// Optimize runs the §3.5 background storage optimizations for one
// table: coalesce small files toward TargetFileBytes (adaptive file
// sizing), optionally recluster rows by a column, and report what
// changed. It is safe to run concurrently with readers: the rewrite
// commits atomically through the log.
func (m *Manager) Optimize(principal, table, clusterBy string) (OptimizeReport, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return OptimizeReport{}, err
	}
	files, version, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return OptimizeReport{}, err
	}
	// The idempotency ID binds this pass to the version it read: a
	// crashed-then-retried pass either replays as a no-op (seal was
	// durable) or re-runs cleanly against the same input set.
	txnID := fmt.Sprintf("optimize:%s:v%d", table, version)
	if _, done := m.Log.AppliedTx(txnID); done {
		after, _, _ := m.Log.Snapshot(table, -1)
		return OptimizeReport{FilesBefore: len(files), FilesAfter: len(after)}, nil
	}
	var small []bigmeta.FileEntry
	for _, f := range files {
		if f.Size < TargetFileBytes/2 {
			small = append(small, f)
		}
	}
	if len(small) < 2 && clusterBy == "" {
		return OptimizeReport{FilesBefore: len(files), FilesAfter: len(files)}, nil
	}
	merge := small
	if clusterBy != "" {
		merge = files // reclustering rewrites everything
	}

	var combined *vector.Batch
	var delta bigmeta.TableDelta
	for _, f := range merge {
		var data []byte
		if err := m.Res.Do(m.Clock, nil, "GET "+f.Bucket+"/"+f.Key, func() error {
			var ge error
			data, _, ge = store.Get(cred, f.Bucket, f.Key)
			return ge
		}); err != nil {
			return OptimizeReport{}, err
		}
		r, err := colfmt.NewVectorizedReader(data, nil, nil)
		if err != nil {
			return OptimizeReport{}, err
		}
		b, err := r.ReadAll()
		if err != nil {
			return OptimizeReport{}, err
		}
		combined, err = vector.AppendBatch(combined, b)
		if err != nil {
			return OptimizeReport{}, err
		}
		delta.Removed = append(delta.Removed, f.Key)
	}
	if combined == nil {
		return OptimizeReport{FilesBefore: len(files), FilesAfter: len(files)}, nil
	}
	if clusterBy != "" {
		combined, err = sortBatchBy(combined, clusterBy)
		if err != nil {
			return OptimizeReport{}, err
		}
	}
	// Split into target-size chunks.
	rowBytes := int64(1)
	if combined.N > 0 {
		var total int64
		for _, f := range merge {
			total += f.Size
		}
		rowBytes = total/int64(combined.N) + 1
	}
	rowsPerFile := int(TargetFileBytes / rowBytes)
	if rowsPerFile < 1 {
		rowsPerFile = combined.N
	}
	// Chunk count is known before any PUT, so every output key can be
	// declared in the journal intent up front.
	nChunks := (combined.N + rowsPerFile - 1) / rowsPerFile
	keys := make([]string, nChunks)
	for i := range keys {
		keys[i] = txDataKey(t, txnID, i)
	}
	intentSeq, err := m.intent(txnID, principal, keys)
	if err != nil {
		return OptimizeReport{}, err
	}
	for start := 0; start < combined.N; start += rowsPerFile {
		end := start + rowsPerFile
		if end > combined.N {
			end = combined.N
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		cols := make([]*vector.Column, len(combined.Cols))
		for i, c := range combined.Cols {
			cols[i] = vector.Gather(c, idx)
		}
		chunk, err := vector.NewBatch(combined.Schema, cols)
		if err != nil {
			return OptimizeReport{}, err
		}
		entry, err := m.writeDataFileAt(t, store, cred, nil, chunk, keys[start/rowsPerFile])
		if err != nil {
			return OptimizeReport{}, err
		}
		delta.Added = append(delta.Added, entry)
	}
	if err := m.commit(principal, table,
		bigmeta.TxOptions{TxnID: txnID, IntentSeq: intentSeq}, delta, t); err != nil {
		return OptimizeReport{}, err
	}
	after, _, _ := m.Log.Snapshot(table, -1)
	return OptimizeReport{
		FilesBefore: len(files), FilesAfter: len(after),
		FilesCoalesced: len(merge), Reclustered: clusterBy != "",
	}, nil
}

// OptimizeReport summarizes a background optimization pass.
type OptimizeReport struct {
	FilesBefore    int
	FilesAfter     int
	FilesCoalesced int
	Reclustered    bool
	GarbageDeleted int
}

func sortBatchBy(b *vector.Batch, col string) (*vector.Batch, error) {
	ci := b.Schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("blmt: cluster column %q not in schema", col)
	}
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	key := b.Cols[ci].Decode()
	sort.SliceStable(idx, func(x, y int) bool {
		a, bb := key.Value(idx[x]), key.Value(idx[y])
		if a.IsNull() {
			return !bb.IsNull()
		}
		if bb.IsNull() {
			return false
		}
		return a.Compare(bb) < 0
	})
	cols := make([]*vector.Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = vector.Gather(c, idx)
	}
	return vector.NewBatch(b.Schema, cols)
}

// GarbageCollect deletes data objects under the table prefix that are
// no longer referenced by the current snapshot and are older than
// minAge (simulated time), returning the number deleted.
func (m *Manager) GarbageCollect(table string, minAge time.Duration) (int, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return 0, err
	}
	files, _, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return 0, err
	}
	live := make(map[string]bool, len(files))
	for _, f := range files {
		live[f.Key] = true
	}
	infos, err := resilience.ListAll(m.Res, m.Clock, nil, store, cred, t.Bucket, t.Prefix+"data/")
	if err != nil {
		return 0, err
	}
	deleted := 0
	now := m.Clock.Now()
	for _, info := range infos {
		if live[info.Key] {
			continue
		}
		if now-info.Updated < minAge {
			continue
		}
		key := info.Key
		if err := m.Res.Do(m.Clock, nil, "DELETE "+t.Bucket+"/"+key, func() error {
			return store.Delete(cred, t.Bucket, key)
		}); err != nil {
			return deleted, err
		}
		deleted++
	}
	return deleted, nil
}

// ExportIceberg writes an Iceberg snapshot of the table's current
// state into its bucket and returns the metadata file key (§3.5).
func (m *Manager) ExportIceberg(table string) (string, error) {
	t, store, cred, err := m.managedTable(table)
	if err != nil {
		return "", err
	}
	files, version, err := m.Log.Snapshot(table, -1)
	if err != nil {
		return "", err
	}
	return iceberg.ExportWithCrash(m.Crash, m.Res, store, cred, t.Bucket, t.Prefix, table, t.Schema, files, version)
}
