package oracle

// The interleaved-transaction oracle: a seeded generator produces a
// schedule of concurrent interactive transactions (overlapping
// lifetimes, overlapping read/write sets across two tables), a driver
// executes it through the real txn layer, and verification replays the
// transactions that actually committed — in commit-version order —
// through the row-at-a-time reference oracle, diffing EVERY table at
// EVERY log version against the decoded data files. That is the
// serializability check in its strongest usable form: the multi-table
// log history must equal some serial execution, and first-committer-
// wins OCC pins that serial order to commit order.
//
// The same schedule runs under the crash-point sweep: for every
// labeled protocol step any transaction passes through (intent, data
// PUT, seal), a fresh world crashes exactly there, recovers from the
// journal + object store alone, re-drives the full schedule (sealed
// transactions no-op via their idempotency IDs), and must converge to
// a serializable, orphan-free state.

import (
	"errors"
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/crashpoint"
	"biglake/internal/engine"
	"biglake/internal/txn"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

var txnTables = []string{"ds.tx_a", "ds.tx_b"}

func txnPrefix(table string) string {
	return "blmt/ds/" + table[len("ds."):] + "/"
}

func txnSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "v", Type: vector.Int64},
	)
}

// Step kinds in a transaction schedule.
const (
	stepBegin = iota
	stepStmt
	stepCommit
	stepRollback
)

type txnStep struct {
	sess int // session index (-1..): setup sessions use negative slots
	kind int
	sql  string // stepStmt only
}

// txnSchedule is one seed-derived interleaved workload. stmts holds
// each transaction's statements in session order — the serial-replay
// script for transactions that end up committing.
type txnSchedule struct {
	seed  uint64
	steps []txnStep
	ids   []string            // txn ID per session index
	stmts map[string][]string // txn ID -> statements
}

// txnID is the stable idempotency identity of one session of one
// seeded schedule: identical across the record pass and every
// crash-resume, so a resumed COMMIT of a sealed transaction no-ops.
func txnID(seed uint64, sess int) string {
	return fmt.Sprintf("itx-%d-s%d", seed, sess)
}

// GenTxnSchedule derives an interleaved schedule from the seed:
// sessions transactions with 2-5 statements each (blind inserts,
// id-targeted updates/deletes on the shared seed rows, table scans),
// begun and committed in seed-shuffled interleaved order. Roughly one
// in five sessions rolls back instead of committing.
func GenTxnSchedule(seed uint64, sessions int) txnSchedule {
	x := seed*2862933555777941757 + 3037000493
	next := func(lo, span int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return lo + int((x>>33)%uint64(span))
	}
	sc := txnSchedule{seed: seed, stmts: make(map[string][]string)}

	// Setup transactions seed both tables with the contended rows
	// (ids 1..4). They run to completion before the interleaved part,
	// so every later session observes them.
	for ti, table := range txnTables {
		sess := -(ti + 1)
		id := txnID(seed, sess)
		sql := fmt.Sprintf("INSERT INTO %s VALUES (1, 10), (2, 20), (3, 30), (4, 40)", table)
		sc.steps = append(sc.steps,
			txnStep{sess: sess, kind: stepBegin},
			txnStep{sess: sess, kind: stepStmt, sql: sql},
			txnStep{sess: sess, kind: stepCommit},
		)
		sc.ids = append(sc.ids, id)
		sc.stmts[id] = []string{sql}
	}

	// Per-session statement scripts.
	perSess := make([][]txnStep, sessions)
	for i := 0; i < sessions; i++ {
		id := txnID(seed, i)
		sc.ids = append(sc.ids, id)
		var script []txnStep
		script = append(script, txnStep{sess: i, kind: stepBegin})
		nOps := next(2, 4)
		for op := 0; op < nOps; op++ {
			table := txnTables[next(0, len(txnTables))]
			var sql string
			switch roll := next(0, 100); {
			case roll < 40: // blind insert: always commutes
				base := 1000*(i+1) + 10*op
				sql = fmt.Sprintf("INSERT INTO %s VALUES (%d, %d), (%d, %d)",
					table, base, base+next(1, 9), base+1, base+next(1, 9))
			case roll < 65: // contended read-modify-write on a seed row
				sql = fmt.Sprintf("UPDATE %s SET v = v + %d WHERE id = %d",
					table, next(1, 9), next(1, 4))
			case roll < 80: // contended delete
				sql = fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, next(1, 4))
			default: // pure read: still enters the read set
				sql = "SELECT id, v FROM " + table
			}
			script = append(script, txnStep{sess: i, kind: stepStmt, sql: sql})
			sc.stmts[id] = append(sc.stmts[id], sql)
		}
		if next(0, 10) < 8 {
			script = append(script, txnStep{sess: i, kind: stepCommit})
		} else {
			script = append(script, txnStep{sess: i, kind: stepRollback})
		}
		perSess[i] = script
	}

	// Interleave: repeatedly pick a live session and emit its next
	// step. Sessions overlap arbitrarily — that is the point.
	live := make([]int, sessions)
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := next(0, len(live))
		i := live[k]
		sc.steps = append(sc.steps, perSess[i][0])
		perSess[i] = perSess[i][1:]
		if len(perSess[i]) == 0 {
			live = append(live[:k], live[k+1:]...)
		}
	}

	// Tail transaction: begins after every interleaved session has
	// resolved, writes BOTH tables, and commits uncontended — so every
	// seed's crash surface includes a multi-table, multi-file seal.
	tail := sessions
	tid := txnID(seed, tail)
	sc.ids = append(sc.ids, tid)
	sc.steps = append(sc.steps, txnStep{sess: tail, kind: stepBegin})
	for ti, table := range txnTables {
		base := 9000 + 100*ti
		sql := fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", table, base, base+next(1, 9))
		sc.steps = append(sc.steps, txnStep{sess: tail, kind: stepStmt, sql: sql})
		sc.stmts[tid] = append(sc.stmts[tid], sql)
	}
	sc.steps = append(sc.steps, txnStep{sess: tail, kind: stepCommit})
	return sc
}

// txnWorld is one journaled, crash-instrumented lakehouse whose only
// write path is the interactive transaction layer.
type txnWorld struct {
	w     *world
	j     *wal.Journal
	cp    *crashpoint.Injector
	eng   *engine.Engine
	tm    *txn.Manager
	acked int64
}

func newTxnWorld() (*txnWorld, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	for _, table := range txnTables {
		if err := w.cat.CreateTable(catalog.Table{
			Dataset: "ds", Name: table[len("ds."):], Type: catalog.Managed, Schema: txnSchema(),
			Cloud: "gcp", Bucket: diffBucket, Prefix: txnPrefix(table), Connection: diffConn,
		}); err != nil {
			return nil, err
		}
	}
	j, err := wal.Open(w.store, w.cred, diffBucket, "")
	if err != nil {
		return nil, err
	}
	tw := &txnWorld{w: w, j: j, cp: crashpoint.New()}
	tw.wire()
	return tw, nil
}

// wire (re)assembles the engine and transaction manager around the
// world's current log — at boot and after recovery swaps in a
// replayed one.
func (tw *txnWorld) wire() {
	w := tw.w
	w.log.AttachJournal(tw.j)
	w.log.Crash = tw.cp

	meta := bigmeta.NewCache(w.clock)
	eng := engine.New(w.cat, w.auth, meta, w.log, w.clock, w.stores, engine.Options{
		UseMetadataCache: true, EnableDPP: true, PruneGranularity: bigmeta.PruneFiles,
		GCLean: true,
	})
	eng.ManagedCred = w.cred
	mgr := blmt.New(w.cat, w.auth, w.log, w.clock, w.stores)
	mgr.DefaultCloud, mgr.DefaultBucket, mgr.DefaultConnection = "gcp", diffBucket, diffConn
	mgr.Journal, mgr.Crash = tw.j, tw.cp
	w.mgr = mgr
	eng.SetMutator(mgr)
	tw.eng = eng

	tm := txn.NewManager(eng, tw.j)
	tm.Crash = tw.cp
	tw.tm = tm
}

// run drives (or, after a crash, re-drives) the schedule. Conflict
// and rollback aborts are expected outcomes, not failures; any other
// error is. Returns the set of transactions that the driver saw
// commit this run.
func (tw *txnWorld) run(sc txnSchedule) (map[string]int64, error) {
	sessions := make(map[int]*txn.Session)
	committed := make(map[string]int64)
	for _, st := range sc.steps {
		s := sessions[st.sess]
		switch st.kind {
		case stepBegin:
			sessions[st.sess] = tw.tm.Begin(diffAdmin, txnID(sc.seed, st.sess))
		case stepStmt:
			if _, err := s.Exec(st.sql); err != nil {
				return nil, fmt.Errorf("s%d %q: %w", st.sess, st.sql, err)
			}
		case stepCommit:
			v, err := s.Commit(nil)
			if err != nil {
				if errors.Is(err, txn.ErrConflict) {
					break // loser of first-committer-wins: expected
				}
				return nil, fmt.Errorf("s%d commit: %w", st.sess, err)
			}
			committed[s.ID] = v
			tw.ack()
		case stepRollback:
			if err := s.Rollback(); err != nil {
				return nil, fmt.Errorf("s%d rollback: %w", st.sess, err)
			}
		}
	}
	return committed, nil
}

func (tw *txnWorld) ack() { tw.acked = tw.w.log.Version() }

// recoverWorld discards everything in memory and rebuilds from the
// journal + object store, then collects orphaned data files.
func (tw *txnWorld) recoverWorld() error {
	j, err := wal.Open(tw.w.store, tw.w.cred, diffBucket, "")
	if err != nil {
		return fmt.Errorf("reopen journal: %w", err)
	}
	rec, err := wal.Recover(j, tw.w.clock)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	v := rec.Log.Version()
	if v < tw.acked || v > tw.acked+1 {
		return fmt.Errorf("recovered version %d outside [acked %d, acked+1]", v, tw.acked)
	}
	tw.j = j
	tw.w.log = rec.Log
	tw.wire()
	var prefixes []string
	for _, table := range txnTables {
		prefixes = append(prefixes, txnPrefix(table)+"data/")
	}
	if _, err := wal.GCOrphans(tw.w.store, tw.w.cred, diffBucket, prefixes, rec.Log); err != nil {
		return fmt.Errorf("orphan gc: %w", err)
	}
	return nil
}

// tableStateAt decodes a table's actual data files at one pinned log
// version into a resultset.
func (tw *txnWorld) tableStateAt(table string, version int64) (*Resultset, error) {
	files, _, err := tw.w.log.Snapshot(table, version)
	if err != nil {
		return nil, err
	}
	merged := vector.NewBuilder(txnSchema()).Build()
	for _, f := range files {
		data, _, err := tw.w.store.Get(tw.w.cred, f.Bucket, f.Key)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", f.Key, err)
		}
		r, err := colfmt.NewVectorizedReader(data, nil, nil)
		if err != nil {
			return nil, err
		}
		b, err := r.ReadAll()
		if err != nil {
			return nil, err
		}
		if merged, err = vector.AppendBatch(merged, b); err != nil {
			return nil, err
		}
	}
	return FromBatch(merged), nil
}

// verifySerializable replays the transactions that actually sealed —
// in commit-version order — through the reference oracle, and diffs
// both tables at every version against the decoded lakehouse state.
// It then checks the orphan-free contract: one GC pass after the fact
// deletes nothing, and every referenced file exists.
func (tw *txnWorld) verifySerializable(sc txnSchedule) error {
	head := tw.w.log.Version()
	// Map each sealed version to its transaction via the idempotency
	// index; every version must belong to a known transaction.
	byVersion := make(map[int64]string)
	for _, id := range sc.ids {
		if v, ok := tw.w.log.AppliedTx(id); ok {
			byVersion[v] = id
		}
	}
	if int64(len(byVersion)) != head {
		return fmt.Errorf("%d sealed versions but %d committed transactions known", head, len(byVersion))
	}

	db := NewDB()
	for _, table := range txnTables {
		db.Add(&Table{Name: table, Schema: txnSchema()})
	}
	for v := int64(1); v <= head; v++ {
		id, ok := byVersion[v]
		if !ok {
			return fmt.Errorf("version %d sealed by unknown transaction", v)
		}
		for _, sql := range sc.stmts[id] {
			if _, err := db.ExecSQL(sql); err != nil {
				return fmt.Errorf("oracle replay %s %q: %w", id, sql, err)
			}
		}
		for _, table := range txnTables {
			got, err := tw.tableStateAt(table, v)
			if err != nil {
				return err
			}
			want, err := db.ExecSQL("SELECT id, v FROM " + table)
			if err != nil {
				return err
			}
			if d := diffResults(got, want, false); d != "" {
				return fmt.Errorf("%s at v%d diverges from serial execution of committed history: %s", table, v, d)
			}
		}
	}

	// Orphan-free: one GC pass finds nothing left to delete, and every
	// referenced file exists.
	var prefixes []string
	for _, table := range txnTables {
		prefixes = append(prefixes, txnPrefix(table)+"data/")
	}
	rep, err := wal.GCOrphans(tw.w.store, tw.w.cred, diffBucket, prefixes, tw.w.log)
	if err != nil {
		return err
	}
	if len(rep.Deleted) != 0 {
		return fmt.Errorf("orphaned objects survived recovery GC: %v", rep.Deleted)
	}
	for _, table := range txnTables {
		files, _, err := tw.w.log.Snapshot(table, -1)
		if err != nil {
			return err
		}
		for _, f := range files {
			if _, err := tw.w.store.Head(tw.w.cred, f.Bucket, f.Key); err != nil {
				return fmt.Errorf("referenced file %s missing: %w", f.Key, err)
			}
		}
	}
	return nil
}

// TxnSweepOptions configures an interleaved-transaction crash sweep.
type TxnSweepOptions struct {
	Seed     uint64
	Sessions int // interleaved sessions beyond the two setup txns (default 3)
	Log      func(format string, args ...any)
}

// TxnSweepReport summarizes one sweep.
type TxnSweepReport struct {
	Points    int      // crash points exercised (one fresh world each)
	Labels    []string // distinct crash labels covered
	Committed int      // transactions sealed in the record pass
	Failure   *CrashFailure
}

// requiredTxnLabels is the coverage contract for the transaction
// commit protocol: the sweep fails if the schedule stops exercising
// any of these steps.
var requiredTxnLabels = []string{
	"txn.before_intent", "txn.after_intent",
	"txn.before_put", "txn.after_put", "txn.after_seal",
	"journal.before_seal", "journal.after_seal",
}

// RunTxnOracle executes one interleaved schedule with no crashes and
// verifies serializability — the fast differential check.
func RunTxnOracle(seed uint64, sessions int) error {
	if sessions <= 0 {
		sessions = 3
	}
	sc := GenTxnSchedule(seed, sessions)
	tw, err := newTxnWorld()
	if err != nil {
		return err
	}
	if _, err := tw.run(sc); err != nil {
		return err
	}
	return tw.verifySerializable(sc)
}

// RunTxnCrashSweep enumerates every crash point the interleaved
// schedule passes through, and for each one: crash there, recover,
// re-drive the full schedule (sealed transactions no-op), verify
// serializability and the orphan-free contract.
func RunTxnCrashSweep(opts TxnSweepOptions) (TxnSweepReport, error) {
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Sessions <= 0 {
		opts.Sessions = 3
	}
	sc := GenTxnSchedule(opts.Seed, opts.Sessions)
	rep := TxnSweepReport{}

	// Record pass: enumerate the crash surface, pin the baseline.
	tw, err := newTxnWorld()
	if err != nil {
		return rep, err
	}
	committed, err := tw.run(sc)
	if err != nil {
		return rep, fmt.Errorf("record pass: %w", err)
	}
	rep.Committed = len(committed)
	if err := tw.verifySerializable(sc); err != nil {
		return rep, fmt.Errorf("record pass (no crash): %w", err)
	}
	hits := tw.cp.Hits()
	seen := map[string]bool{}
	for _, h := range hits {
		if !seen[h.Label] {
			seen[h.Label] = true
			rep.Labels = append(rep.Labels, h.Label)
		}
	}
	for _, l := range requiredTxnLabels {
		if !seen[l] {
			return rep, fmt.Errorf("schedule no longer reaches crash point %q", l)
		}
	}
	logf("txn crash surface: %d points across %d labels, %d committed txns (seed %d)",
		len(hits), len(rep.Labels), rep.Committed, opts.Seed)

	for _, h := range hits {
		if fail := txnSweepOne(opts.Seed, sc, h); fail != nil {
			rep.Failure = fail
			return rep, nil
		}
		rep.Points++
	}
	logf("swept %d txn crash points: every recovery serializable, zero orphans", rep.Points)
	return rep, nil
}

func txnSweepOne(seed uint64, sc txnSchedule, h crashpoint.Hit) *CrashFailure {
	fail := func(format string, args ...any) *CrashFailure {
		return &CrashFailure{Seed: seed, Label: h.Label, Hit: h.N,
			Detail: fmt.Sprintf(format, args...) + " (txn sweep)"}
	}
	tw, err := newTxnWorld()
	if err != nil {
		return fail("world: %v", err)
	}
	tw.cp.Arm(h.Label, h.N)
	sig, runErr := crashpoint.Run(func() error {
		_, e := tw.run(sc)
		return e
	})
	if runErr != nil {
		return fail("schedule failed before the armed point: %v", runErr)
	}
	if sig == nil {
		return fail("armed point never fired (schedule drifted from record pass)")
	}
	// Process death: every in-memory session is gone. Recovery
	// rebuilds from durable state; the client re-drives the whole
	// schedule with the same transaction IDs — sealed commits no-op,
	// everything else applies exactly once.
	if err := tw.recoverWorld(); err != nil {
		return fail("recovery: %v", err)
	}
	if _, err := tw.run(sc); err != nil {
		return fail("re-drive after recovery: %v", err)
	}
	if err := tw.verifySerializable(sc); err != nil {
		return fail("%v", err)
	}
	return nil
}
