package oracle

// The crash-point sweep: a scripted multi-protocol workload (engine
// DML, all three Write API stream modes, a cross-stream batch commit,
// BLMT compaction, auto-Iceberg export) runs once under a recording
// crashpoint.Injector to enumerate every labeled protocol step it
// passes through. Then, for every (label, hit) pair, a fresh world
// replays the same workload with a crash armed exactly there, the
// "process" dies, and recovery rebuilds everything from the durable
// journal + object store alone. After recovery the client drives the
// workload to completion (idempotency IDs make already-sealed ops
// exact no-ops) and the final world is cross-checked against the
// differential oracle:
//
//   - no acked commit lost, no unacked commit visible (recovered log
//     version is exactly the acked version, or +1 if the in-flight op
//     had already sealed);
//   - no duplicate and no missing rows (engine vs oracle multiset);
//   - zero unreachable objects after orphan GC;
//   - every referenced data file exists;
//   - historical snapshots replay bit-identically;
//   - the Iceberg version hint agrees with the log head.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/crashpoint"
	"biglake/internal/engine"
	"biglake/internal/iceberg"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

const crashTable = "ds.events"
const crashPrefix = "blmt/ds/events/"

// CrashOptions configures a sweep.
type CrashOptions struct {
	Seed uint64
	Log  func(format string, args ...any)
}

// CrashReport summarizes a sweep.
type CrashReport struct {
	Points  int      // crash points exercised (one world each)
	Labels  []string // distinct labels covered
	Failure *CrashFailure
}

// CrashFailure is one crash point whose recovery broke an invariant.
type CrashFailure struct {
	Seed   uint64
	Label  string
	Hit    int
	Detail string
}

// Format renders the reproduction recipe.
func (f *CrashFailure) Format() string {
	return fmt.Sprintf(
		"crash sweep failure: seed=%d crash=%s#%d\n  %s\n  replay: go test ./internal/oracle -run TestCrashSweep -seed=%d",
		f.Seed, f.Label, f.Hit, f.Detail, f.Seed)
}

// crashPlan is the seed-derived shape of the scripted workload. Both
// the workload and the oracle's expected state derive from it, so a
// sweep is a pure function of the seed.
type crashPlan struct {
	ins1N, ins2N int // engine INSERT row counts
	scN          int // rows per committed-stream append (two appends)
	sbN          int // buffered-stream rows
	pN           int // rows per pending stream (two streams)
	delFrom      int // DELETE WHERE id >= delFrom
}

func planFor(seed uint64) crashPlan {
	x := seed
	next := func(lo, span int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return lo + int((x>>33)%uint64(span))
	}
	return crashPlan{
		ins1N:   next(3, 4),
		ins2N:   next(2, 4),
		scN:     next(3, 4),
		sbN:     next(4, 4),
		pN:      next(5, 5),
		delFrom: 320, // drops the second pending stream's rows
	}
}

func crashSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "kind", Type: vector.String},
		vector.Field{Name: "value", Type: vector.Float64},
	)
}

func crashKind(id int) string {
	return []string{"click", "view", "purchase"}[id%3]
}

func crashVal(id int) float64 { return float64(id) + 0.25 }

func crashInsertSQL(start, n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + crashTable + " VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		id := start + i
		fmt.Fprintf(&sb, "(%d, '%s', %v)", id, crashKind(id), crashVal(id))
	}
	return sb.String()
}

func crashBatch(start, n int) *vector.Batch {
	bl := vector.NewBuilder(crashSchema())
	for i := 0; i < n; i++ {
		id := start + i
		bl.Append(vector.IntValue(int64(id)), vector.StringValue(crashKind(id)), vector.FloatValue(crashVal(id)))
	}
	return bl.Build()
}

// expectedDB applies the workload's logical effect exactly once to the
// row-at-a-time oracle — what any crash + recovery + retry sequence
// must converge to.
func expectedDB(p crashPlan) (*DB, error) {
	db := NewDB()
	db.Add(&Table{Name: crashTable, Schema: crashSchema()})
	stmts := []string{
		crashInsertSQL(1, p.ins1N),
		crashInsertSQL(21, p.ins2N),
		crashInsertSQL(100, p.scN),
		crashInsertSQL(110, p.scN),
		crashInsertSQL(200, p.sbN),
		crashInsertSQL(300, p.pN),
		crashInsertSQL(320, p.pN),
		"UPDATE " + crashTable + " SET value = value + 1 WHERE kind = 'click'",
		fmt.Sprintf("DELETE FROM %s WHERE id >= %d", crashTable, p.delFrom),
	}
	for _, s := range stmts {
		if _, err := db.ExecSQL(s); err != nil {
			return nil, fmt.Errorf("oracle %q: %w", s, err)
		}
	}
	return db, nil
}

// crashWorld is one journaled, crash-instrumented lakehouse.
type crashWorld struct {
	w        *world
	j        *wal.Journal
	cp       *crashpoint.Injector
	meta     *bigmeta.Cache
	srv      *storageapi.Server
	eng      *engine.Engine
	restored map[string]bigmeta.StreamState
	// acked is the log version after the last op the workload driver
	// saw complete — the client-visible durability watermark.
	acked int64
}

func newCrashWorld() (*crashWorld, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	if err := w.cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "events", Type: catalog.Managed, Schema: crashSchema(),
		Cloud: "gcp", Bucket: diffBucket, Prefix: crashPrefix, Connection: diffConn,
	}); err != nil {
		return nil, err
	}
	j, err := wal.Open(w.store, w.cred, diffBucket, "")
	if err != nil {
		return nil, err
	}
	cw := &crashWorld{w: w, j: j, cp: crashpoint.New(), restored: map[string]bigmeta.StreamState{}}
	cw.wire()
	return cw, nil
}

// wire (re)assembles the journaled manager, write server, and engine
// around the world's current log — used both at boot and after
// recovery swaps in a replayed log.
func (cw *crashWorld) wire() {
	w := cw.w
	w.log.AttachJournal(cw.j)
	w.log.Crash = cw.cp

	mgr := blmt.New(w.cat, w.auth, w.log, w.clock, w.stores)
	mgr.DefaultCloud = "gcp"
	mgr.DefaultBucket = diffBucket
	mgr.DefaultConnection = diffConn
	mgr.AutoIceberg = true
	mgr.Journal = cw.j
	mgr.Crash = cw.cp
	w.mgr = mgr

	cw.meta = bigmeta.NewCache(w.clock)
	srv := storageapi.NewServer(w.cat, w.auth, cw.meta, w.log, w.clock, w.stores)
	srv.ManagedCred = w.cred
	srv.Journal = cw.j
	srv.Crash = cw.cp
	srv.RestoreStreams(cw.restored)
	cw.srv = srv

	eng := engine.New(w.cat, w.auth, cw.meta, w.log, w.clock, w.stores, engine.Options{
		UseMetadataCache: true, EnableDPP: true, PruneGranularity: bigmeta.PruneFiles,
		// Scan-cache on: crash/recovery sweeps double as validation that
		// generation-keyed reuse never resurrects pre-crash file contents.
		EnableScanCache: true,
		GCLean:          true,
	})
	eng.ManagedCred = w.cred
	eng.SetMutator(mgr)
	cw.eng = eng
}

func (cw *crashWorld) ack() { cw.acked = cw.w.log.Version() }

func (cw *crashWorld) dml(qid, sql string) error {
	if _, err := cw.eng.Query(engine.NewContext(diffAdmin, qid), sql); err != nil {
		return fmt.Errorf("%s: %w", qid, err)
	}
	cw.ack()
	return nil
}

// stream returns the deterministic stream for one logical slot,
// reusing a journal-restored stream when the crashed process already
// sealed its state.
func (cw *crashWorld) stream(want string, mode storageapi.WriteMode) (string, error) {
	if _, ok := cw.restored[want]; ok {
		return want, nil
	}
	id, err := cw.srv.CreateWriteStream(string(diffAdmin), crashTable, mode)
	if err != nil {
		return "", err
	}
	if id != want {
		return "", fmt.Errorf("stream slot minted %s, want %s (workload not deterministic)", id, want)
	}
	return id, nil
}

// appendAt is an exactly-once client append: ErrOffsetExists means the
// crashed process already sealed these rows, which is success.
func (cw *crashWorld) appendAt(id string, off int64, rows *vector.Batch) error {
	if _, err := cw.srv.AppendRows(id, off, rows); err != nil && !errors.Is(err, storageapi.ErrOffsetExists) {
		return fmt.Errorf("append %s@%d: %w", id, off, err)
	}
	cw.ack()
	return nil
}

// workload runs (or, after a crash, resumes) the scripted multi-
// protocol session. Every op carries a stable idempotency identity, so
// running it again on a recovered world applies each op exactly once.
func (cw *crashWorld) workload(p crashPlan) error {
	if err := cw.dml("cw-ins1", crashInsertSQL(1, p.ins1N)); err != nil {
		return err
	}
	if err := cw.dml("cw-ins2", crashInsertSQL(21, p.ins2N)); err != nil {
		return err
	}

	// Committed mode: each append is its own durable commit.
	sc, err := cw.stream("writeStreams/1", storageapi.CommittedMode)
	if err != nil {
		return err
	}
	if err := cw.appendAt(sc, 0, crashBatch(100, p.scN)); err != nil {
		return err
	}
	if err := cw.appendAt(sc, int64(p.scN), crashBatch(110, p.scN)); err != nil {
		return err
	}

	// Buffered mode: rows are durable only from the flush; buffered
	// rows die with the process, so an unflushed slot replays in full.
	sb, err := cw.stream("writeStreams/2", storageapi.BufferedMode)
	if err != nil {
		return err
	}
	if st, ok := cw.restored[sb]; !ok || st.Offset < int64(p.sbN) {
		if _, err := cw.srv.AppendRows(sb, -1, crashBatch(200, p.sbN)); err != nil {
			return fmt.Errorf("buffered append: %w", err)
		}
		if _, err := cw.srv.FlushRows(sb, int64(p.sbN)); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	cw.ack()

	// Pending mode ×2 + cross-stream batch commit. A restored pending
	// stream is necessarily committed (that is the only state it ever
	// seals), so its appends are skipped.
	var pending []string
	for i, start := range []int{300, 320} {
		id, err := cw.stream(fmt.Sprintf("writeStreams/%d", 3+i), storageapi.PendingMode)
		if err != nil {
			return err
		}
		if st, ok := cw.restored[id]; !ok || !st.Committed {
			if _, err := cw.srv.AppendRows(id, -1, crashBatch(start, p.pN)); err != nil {
				return fmt.Errorf("pending append %s: %w", id, err)
			}
			if _, err := cw.srv.FinalizeStream(id); err != nil {
				return fmt.Errorf("finalize %s: %w", id, err)
			}
		}
		pending = append(pending, id)
	}
	if err := cw.srv.BatchCommitStreamsTx("cw-batch-1", pending); err != nil {
		return fmt.Errorf("batch commit: %w", err)
	}
	cw.ack()

	if err := cw.dml("cw-upd", "UPDATE "+crashTable+" SET value = value + 1 WHERE kind = 'click'"); err != nil {
		return err
	}
	if err := cw.dml("cw-del", fmt.Sprintf("DELETE FROM %s WHERE id >= %d", crashTable, p.delFrom)); err != nil {
		return err
	}

	// Background compaction, crash-atomic like any other transaction.
	if _, err := cw.w.mgr.Optimize(string(diffAdmin), crashTable, ""); err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	cw.ack()
	return nil
}

// recoverWorld is the restart path: everything in-memory is discarded
// and rebuilt from the journal and object store, orphaned data files
// are collected, and the Iceberg export is re-converged.
func (cw *crashWorld) recoverWorld() error {
	j, err := wal.Open(cw.w.store, cw.w.cred, diffBucket, "")
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	rec, err := wal.Recover(j, cw.w.clock)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	// Atomicity at commit granularity: every acked commit survived, and
	// at most the single in-flight commit (iff it sealed) joined them.
	v := rec.Log.Version()
	if v < cw.acked || v > cw.acked+1 {
		return fmt.Errorf("recovered version %d outside [acked %d, acked+1]", v, cw.acked)
	}
	cw.j = j
	cw.w.log = rec.Log
	cw.restored = rec.Streams
	cw.wire()

	// Collect debris of transactions that died between PUT and seal.
	if _, err := wal.GCOrphans(cw.w.store, cw.w.cred, diffBucket, []string{crashPrefix + "data/"}, rec.Log); err != nil {
		return fmt.Errorf("orphan gc: %w", err)
	}
	// A crash inside an auto-export can leave the version hint behind
	// the sealed log; re-export converges it.
	if v > 0 {
		if _, err := cw.w.mgr.ExportIceberg(crashTable); err != nil {
			return fmt.Errorf("recovery re-export: %w", err)
		}
	}
	return nil
}

// verifyFinal cross-checks a driven-to-completion world against the
// oracle and the durability invariants.
func (cw *crashWorld) verifyFinal(p crashPlan) error {
	db, err := expectedDB(p)
	if err != nil {
		return err
	}
	res, err := cw.eng.Query(engine.NewContext(diffAdmin, "cw-final"),
		"SELECT id, kind, value FROM "+crashTable)
	if err != nil {
		return fmt.Errorf("final read: %w", err)
	}
	want, err := db.ExecSQL("SELECT id, kind, value FROM " + crashTable)
	if err != nil {
		return err
	}
	if d := diffResults(FromBatch(res.Batch), want, false); d != "" {
		return fmt.Errorf("final state diverges from oracle (lost, duplicated, or phantom rows): %s", d)
	}

	// Zero unreachable objects: a second GC pass finds nothing, and
	// everything the log references is present.
	rep, err := wal.GCOrphans(cw.w.store, cw.w.cred, diffBucket, []string{crashPrefix + "data/"}, cw.w.log)
	if err != nil {
		return err
	}
	if len(rep.Deleted) != 0 {
		return fmt.Errorf("unreachable objects after full replay: %v", rep.Deleted)
	}
	files, ver, err := cw.w.log.Snapshot(crashTable, -1)
	if err != nil {
		return err
	}
	for _, f := range files {
		if _, err := cw.w.store.Head(cw.w.cred, f.Bucket, f.Key); err != nil {
			return fmt.Errorf("referenced file %s missing: %w", f.Key, err)
		}
	}

	// Historical snapshots replay bit-identically at every version.
	for v := int64(1); v <= ver; v++ {
		a, _, err := cw.w.log.Snapshot(crashTable, v)
		if err != nil {
			return err
		}
		b, _, err := cw.w.log.SnapshotByReplay(crashTable, v)
		if err != nil {
			return err
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			return fmt.Errorf("snapshot v%d: baseline read != replay read", v)
		}
	}

	// The Iceberg hint points at the sealed head.
	hint, err := iceberg.LatestMetadataKey(cw.w.store, cw.w.cred, diffBucket, crashPrefix)
	if err != nil {
		return fmt.Errorf("version hint: %w", err)
	}
	if wantKey := fmt.Sprintf("%smetadata/v%d.metadata.json", crashPrefix, ver); hint != wantKey {
		return fmt.Errorf("version hint %s, want %s", hint, wantKey)
	}
	return nil
}

// requiredCrashLabels is the coverage contract: the sweep fails if the
// workload stops exercising any of these protocol steps.
var requiredCrashLabels = []string{
	"journal.before_seal", "journal.after_seal",
	"flush.before_put", "flush.after_put", "flush.after_commit",
	"batch.before_put", "batch.after_put", "batch.after_commit",
	"blmt.before_put", "blmt.after_put", "blmt.after_commit",
	"iceberg.before_manifest", "iceberg.after_manifest",
	"iceberg.after_metadata", "iceberg.after_hint",
}

// RunCrashSweep enumerates every crash point the scripted workload
// passes through and verifies crash → recover → resume at each one.
func RunCrashSweep(opts CrashOptions) (CrashReport, error) {
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	plan := planFor(opts.Seed)
	rep := CrashReport{}

	// Record pass: enumerate the crash surface and pin the baseline.
	cw, err := newCrashWorld()
	if err != nil {
		return rep, err
	}
	if err := cw.workload(plan); err != nil {
		return rep, fmt.Errorf("record pass: %w", err)
	}
	if err := cw.verifyFinal(plan); err != nil {
		return rep, fmt.Errorf("record pass (no crash): %w", err)
	}
	hits := cw.cp.Hits()
	seen := map[string]bool{}
	for _, h := range hits {
		if !seen[h.Label] {
			seen[h.Label] = true
			rep.Labels = append(rep.Labels, h.Label)
		}
	}
	for _, l := range requiredCrashLabels {
		if !seen[l] {
			return rep, fmt.Errorf("workload no longer reaches crash point %q", l)
		}
	}
	logf("crash surface: %d points across %d labels (seed %d)", len(hits), len(rep.Labels), opts.Seed)

	for _, h := range hits {
		if fail := sweepOne(opts.Seed, plan, h); fail != nil {
			rep.Failure = fail
			return rep, nil
		}
		rep.Points++
	}
	logf("swept %d crash points: all recoveries converged", rep.Points)
	return rep, nil
}

func sweepOne(seed uint64, plan crashPlan, h crashpoint.Hit) *CrashFailure {
	fail := func(format string, args ...any) *CrashFailure {
		return &CrashFailure{Seed: seed, Label: h.Label, Hit: h.N, Detail: fmt.Sprintf(format, args...)}
	}
	cw, err := newCrashWorld()
	if err != nil {
		return fail("world: %v", err)
	}
	cw.cp.Arm(h.Label, h.N)
	sig, err := crashpoint.Run(func() error { return cw.workload(plan) })
	if err != nil {
		return fail("workload failed before the armed point: %v", err)
	}
	if sig == nil {
		return fail("armed point never fired (workload drifted from record pass)")
	}
	if err := cw.recoverWorld(); err != nil {
		return fail("recovery: %v", err)
	}
	// The client drives the same session to completion; sealed ops
	// must no-op, unsealed ops must apply exactly once.
	if err := cw.workload(plan); err != nil {
		return fail("resume after recovery: %v", err)
	}
	if err := cw.verifyFinal(plan); err != nil {
		return fail("%v", err)
	}
	return nil
}
