package bigmeta

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"biglake/internal/crashpoint"
	"biglake/internal/obs"
	"biglake/internal/sim"
)

// CommitLatency is the simulated cost of one Big Metadata commit: the
// stateful service appends to an in-memory tail backed by a replicated
// small-state store (Spanner in production). Contrast with the
// ~200ms-per-mutation object-store commit path of open table formats
// (§3.5).
const CommitLatency = 2 * time.Millisecond

// TableDelta is the change one commit applies to one table.
type TableDelta struct {
	Added   []FileEntry
	Removed []string // object keys
	// Quarantine marks files as integrity-quarantined; Unquarantine
	// lifts marks (a successful repair). Both ride inside sealed
	// commits so containment state is as durable as the data it
	// protects. See quarantine.go.
	Quarantine   []QuarantineMark
	Unquarantine []string
}

// CommitRecord is one entry in a table's tamper-proof history.
type CommitRecord struct {
	Version   int64
	Time      time.Duration
	Principal string
	Tables    []string
	Deltas    map[string]TableDelta
}

// StreamState is the durable per-write-stream state a commit carries
// into the journal: the offsets a crashed Write API client may resume
// AppendRows from. In production BigQuery this state lives in the same
// Spanner-backed small-state store as the log itself; here it rides
// inside sealed commit records so recovery rebuilds both atomically.
type StreamState struct {
	Table     string `json:"table"`
	Principal string `json:"principal"`
	// Mode mirrors storageapi.WriteMode (0 committed, 1 pending,
	// 2 buffered) without importing it.
	Mode int `json:"mode"`
	// Offset is the durable row offset: rows below it are committed
	// (committed mode) or flushed (buffered mode). A recovered stream
	// accepts AppendRows at exactly this offset.
	Offset int64 `json:"offset"`
	// FlushSeq numbers the stream's successful flushes, so recovered
	// streams keep minting the same deterministic data-file keys.
	FlushSeq  int64 `json:"flush_seq"`
	Finalized bool  `json:"finalized"`
	Committed bool  `json:"committed"`
}

// TxCommit is the journal-facing form of one sealed commit: everything
// a recovery replay needs to reproduce the in-memory CommitRecord plus
// the idempotency and stream bookkeeping around it.
type TxCommit struct {
	TxnID     string                 `json:"txn_id,omitempty"`
	IntentSeq int64                  `json:"intent_seq,omitempty"`
	Principal string                 `json:"principal"`
	Version   int64                  `json:"version"`
	Time      time.Duration          `json:"time"`
	Deltas    map[string]TableDelta  `json:"deltas"`
	Streams   map[string]StreamState `json:"streams,omitempty"`
}

// CommitSink is the durable write-ahead hook: when attached, every
// commit is appended to the sink *before* it becomes visible in
// memory, so a commit that was acknowledged is always recoverable and
// a commit that never reached the sink never happened. internal/wal
// implements this against the object store.
type CommitSink interface {
	AppendCommit(rec TxCommit) error
}

// TxOptions carries the transactional envelope of one commit.
type TxOptions struct {
	// TxnID is the client-supplied idempotency ID. A commit replayed
	// with a TxnID the log has already applied is an exact no-op that
	// returns the original version. Empty disables deduplication.
	TxnID string
	// IntentSeq links the sealed commit to the journal intent record
	// that opened the transaction (0 = none).
	IntentSeq int64
	// Streams is durable Write API stream state sealed atomically with
	// the commit.
	Streams map[string]StreamState
}

// Log is the Big Metadata transaction log service. Writers never touch
// the log representation directly — all mutations go through Commit,
// which is what makes BLMT history tamper-proof with a reliable audit
// trail (§3.5).
type Log struct {
	clock *sim.Clock
	// obs receives the "bigmeta.meta_*" counters: a private registry
	// until UseObs installs a shared one.
	obs *obs.Registry

	mu      sync.RWMutex
	version int64
	tail    []CommitRecord // commits after the baseline
	history []CommitRecord // full audit history (append-only)

	// Columnar baselines: per-table compacted file lists as of
	// baselineVersion.
	baselineVersion int64
	baseline        map[string][]FileEntry

	// sink, when attached, durably journals every commit before it is
	// applied; applied maps idempotency IDs to the version that
	// committed them.
	sink    CommitSink
	applied map[string]int64

	// quarantined is current-state containment: table → key → mark.
	// Maintained incrementally as commits apply (and on Restore), not
	// versioned — a file that is sick now is sick for pinned readers of
	// old snapshots too.
	quarantined map[string]map[string]QuarantineMark

	// pins caches historical (pre-baseline) snapshots so a pinned
	// reader replays the audit history at most once per (table,
	// version); repeat reads are served from the cache. Guarded by
	// pinMu, which is only ever taken while holding mu (never the
	// reverse).
	pinMu    sync.Mutex
	pins     map[pinKey][]FileEntry
	pinOrder []pinKey

	// BaselineEvery triggers automatic compaction after this many tail
	// commits (0 disables).
	BaselineEvery int

	// Crash marks the seal protocol's crash points (nil = none).
	Crash *crashpoint.Injector
}

// NewLog returns an empty transaction log.
func NewLog(clock *sim.Clock) *Log {
	return &Log{
		clock:         clock,
		obs:           obs.NewRegistry(),
		baseline:      make(map[string][]FileEntry),
		applied:       make(map[string]int64),
		pins:          make(map[pinKey][]FileEntry),
		BaselineEvery: 64,
	}
}

// pinKey identifies one cached historical snapshot. Snapshots are
// immutable once their version is sealed, so entries never invalidate.
type pinKey struct {
	table   string
	version int64
}

// pinCacheMax bounds the historical-snapshot cache.
const pinCacheMax = 256

// UseObs points the log's commit counters at a shared registry. Call
// during setup, before commits run.
func (l *Log) UseObs(r *obs.Registry) {
	if r != nil {
		l.obs = r
	}
}

// AttachJournal installs the durable commit sink. Commits made after
// attachment are write-ahead journaled; the sink must be in place
// before any commit that needs to survive a crash.
func (l *Log) AttachJournal(sink CommitSink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = sink
}

// AppliedTx reports whether the idempotency ID has already committed,
// and at which version. Writers check this before re-executing a
// transaction after a crash: a sealed transaction replays as a no-op.
func (l *Log) AppliedTx(txnID string) (int64, bool) {
	if txnID == "" {
		return 0, false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	v, ok := l.applied[txnID]
	return v, ok
}

// Commit atomically applies deltas to every named table — a
// multi-table transaction, the §3.5 feature open table formats lack —
// and returns the new log version.
func (l *Log) Commit(principal string, deltas map[string]TableDelta) (int64, error) {
	return l.CommitTx(principal, TxOptions{}, deltas)
}

// CommitTx is Commit with a transactional envelope: an idempotency ID
// (replays are exact no-ops returning the original version), an
// optional journal intent link, and durable Write API stream state.
// When a journal sink is attached the sealed commit record is written
// durably *before* the in-memory log mutates — the write-ahead
// ordering that makes an acknowledged commit survive any crash, and an
// unsealed one vanish completely.
func (l *Log) CommitTx(principal string, opts TxOptions, deltas map[string]TableDelta) (int64, error) {
	return l.CommitTxIf(principal, opts, deltas, 0, nil)
}

// CommitTxIf is CommitTx with first-committer-wins validation: before
// sealing, check is invoked — still under the log's single mutex —
// for every commit record with Version > since. If any invocation
// returns an error the commit is rejected with nothing written,
// durable or in-memory. Holding one lock across validate+seal is what
// makes a multi-table commit conflict-atomic without per-table locks,
// so no lock ordering exists for concurrent committers to deadlock on.
// An already-applied TxnID replays as a no-op before validation runs
// (a crashed committer's retry must not conflict with itself).
func (l *Log) CommitTxIf(principal string, opts TxOptions, deltas map[string]TableDelta, since int64, check func(CommitRecord) error) (int64, error) {
	if len(deltas) == 0 {
		return 0, fmt.Errorf("bigmeta: empty commit")
	}
	l.clock.Advance(CommitLatency)
	l.mu.Lock()
	defer l.mu.Unlock()
	if opts.TxnID != "" {
		if v, ok := l.applied[opts.TxnID]; ok {
			l.obs.Counter("bigmeta.meta_commit_replays").Add(1)
			return v, nil
		}
	}
	if check != nil {
		// History versions are contiguous from 1, so the records after
		// `since` start at index `since`.
		start := since
		if start < 0 {
			start = 0
		}
		for i := int(start); i < len(l.history); i++ {
			if err := check(l.history[i]); err != nil {
				l.obs.Counter("bigmeta.meta_commit_conflicts").Add(1)
				return 0, err
			}
		}
	}
	rec := CommitRecord{
		Version:   l.version + 1,
		Time:      l.clock.Now(),
		Principal: principal,
		Deltas:    make(map[string]TableDelta, len(deltas)),
	}
	for table, d := range deltas {
		rec.Tables = append(rec.Tables, table)
		cp := TableDelta{
			Added:        append([]FileEntry(nil), d.Added...),
			Removed:      append([]string(nil), d.Removed...),
			Quarantine:   append([]QuarantineMark(nil), d.Quarantine...),
			Unquarantine: append([]string(nil), d.Unquarantine...),
		}
		rec.Deltas[table] = cp
	}
	sort.Strings(rec.Tables)
	if l.sink != nil {
		// Seal the commit durably before it exists in memory. A crash
		// on either side of this write is binary: before it the
		// transaction never happened; after it recovery rolls the
		// commit forward even though no caller was acknowledged.
		l.Crash.At("journal.before_seal")
		if err := l.sink.AppendCommit(TxCommit{
			TxnID:     opts.TxnID,
			IntentSeq: opts.IntentSeq,
			Principal: principal,
			Version:   rec.Version,
			Time:      rec.Time,
			Deltas:    rec.Deltas,
			Streams:   opts.Streams,
		}); err != nil {
			return 0, fmt.Errorf("bigmeta: journal seal: %w", err)
		}
		l.Crash.At("journal.after_seal")
	}
	l.version = rec.Version
	l.tail = append(l.tail, rec)
	l.history = append(l.history, rec)
	l.applyQuarantineLocked(rec)
	if opts.TxnID != "" {
		l.applied[opts.TxnID] = rec.Version
	}
	l.obs.Counter("bigmeta.meta_commits").Add(1)
	if l.BaselineEvery > 0 && len(l.tail) >= l.BaselineEvery {
		l.compactLocked()
	}
	return l.version, nil
}

// Restore replays journal-recovered commits into an empty log,
// preserving version numbers, commit times, principals, and
// idempotency IDs. It is the recovery path's inverse of the sink:
// Restore(sealed records) reproduces exactly the state whose commits
// sealed those records. Commits must arrive in version order with no
// gaps from version+1.
func (l *Log) Restore(commits []TxCommit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.history) > 0 {
		return fmt.Errorf("bigmeta: Restore on a non-empty log")
	}
	for _, c := range commits {
		if c.Version != l.version+1 {
			return fmt.Errorf("bigmeta: restore gap: have version %d, next record %d", l.version, c.Version)
		}
		rec := CommitRecord{
			Version:   c.Version,
			Time:      c.Time,
			Principal: c.Principal,
			Deltas:    make(map[string]TableDelta, len(c.Deltas)),
		}
		for table, d := range c.Deltas {
			rec.Tables = append(rec.Tables, table)
			rec.Deltas[table] = TableDelta{
				Added:        append([]FileEntry(nil), d.Added...),
				Removed:      append([]string(nil), d.Removed...),
				Quarantine:   append([]QuarantineMark(nil), d.Quarantine...),
				Unquarantine: append([]string(nil), d.Unquarantine...),
			}
		}
		sort.Strings(rec.Tables)
		l.version = c.Version
		l.tail = append(l.tail, rec)
		l.history = append(l.history, rec)
		l.applyQuarantineLocked(rec)
		if c.TxnID != "" {
			l.applied[c.TxnID] = c.Version
		}
	}
	l.obs.Counter("bigmeta.meta_commits_restored").Add(int64(len(commits)))
	return nil
}

// Version returns the latest committed version.
func (l *Log) Version() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

// Compact converts the tail into columnar baselines ("Big Metadata
// periodically converts the transaction log to columnar baselines for
// read efficiency").
func (l *Log) Compact() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactLocked()
}

func (l *Log) compactLocked() {
	for _, rec := range l.tail {
		for table, d := range rec.Deltas {
			l.baseline[table] = applyDelta(l.baseline[table], d)
		}
	}
	l.baselineVersion = l.version
	l.tail = nil
	l.obs.Counter("bigmeta.meta_compactions").Add(1)
}

func applyDelta(files []FileEntry, d TableDelta) []FileEntry {
	if len(d.Removed) > 0 {
		rm := make(map[string]bool, len(d.Removed))
		for _, k := range d.Removed {
			rm[k] = true
		}
		kept := files[:0]
		for _, f := range files {
			if !rm[f.Key] {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	return append(files, d.Added...)
}

// Snapshot returns the table's file list as of version (-1 = latest)
// along with the snapshot version. Reads reconcile the columnar
// baseline with the in-memory tail.
func (l *Log) Snapshot(table string, version int64) ([]FileEntry, int64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if version < 0 {
		version = l.version
	}
	if version > l.version {
		return nil, 0, fmt.Errorf("%w: version %d > latest %d", ErrNoSnapshot, version, l.version)
	}
	if version < l.baselineVersion {
		// Point-in-time reads older than the baseline are served from
		// the pin cache when resident; only the first read of a given
		// (table, version) pays a full audit-history replay. Snapshot
		// immutability makes the cached entry valid forever.
		k := pinKey{table: table, version: version}
		l.pinMu.Lock()
		if cached, ok := l.pins[k]; ok {
			l.pinMu.Unlock()
			l.obs.Counter("bigmeta.meta_snapshot_pin_hits").Add(1)
			return append([]FileEntry(nil), cached...), version, nil
		}
		files := replay(l.history, table, version)
		if len(l.pinOrder) >= pinCacheMax {
			oldest := l.pinOrder[0]
			l.pinOrder = l.pinOrder[1:]
			delete(l.pins, oldest)
		}
		l.pins[k] = append([]FileEntry(nil), files...)
		l.pinOrder = append(l.pinOrder, k)
		l.pinMu.Unlock()
		l.obs.Counter("bigmeta.meta_snapshot_pin_misses").Add(1)
		l.obs.Counter("bigmeta.meta_snapshot_replays").Add(1)
		return files, version, nil
	}
	files := append([]FileEntry(nil), l.baseline[table]...)
	for _, rec := range l.tail {
		if rec.Version > version {
			break
		}
		if d, ok := rec.Deltas[table]; ok {
			files = applyDelta(files, d)
		}
	}
	return files, version, nil
}

// SnapshotByReplay reconstructs the file list by replaying the entire
// history with no baseline — the A3 ablation baseline for read cost.
func (l *Log) SnapshotByReplay(table string, version int64) ([]FileEntry, int64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if version < 0 {
		version = l.version
	}
	if version > l.version {
		return nil, 0, fmt.Errorf("%w: version %d > latest %d", ErrNoSnapshot, version, l.version)
	}
	return replay(l.history, table, version), version, nil
}

func replay(history []CommitRecord, table string, version int64) []FileEntry {
	var files []FileEntry
	for _, rec := range history {
		if rec.Version > version {
			break
		}
		if d, ok := rec.Deltas[table]; ok {
			files = applyDelta(files, d)
		}
	}
	return files
}

// History returns the audit records touching a table (all records if
// table is empty). The returned slice is a copy; callers cannot alter
// history.
func (l *Log) History(table string) []CommitRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []CommitRecord
	for _, rec := range l.history {
		if table == "" {
			out = append(out, rec)
			continue
		}
		if _, ok := rec.Deltas[table]; ok {
			out = append(out, rec)
		}
	}
	return out
}

// Since returns copies of the commit records with Version > version,
// in version order — the history a transaction that began at
// `version` must validate against. Used for cheap pre-validation
// outside the commit lock; the authoritative check reruns under
// CommitTxIf.
func (l *Log) Since(version int64) []CommitRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	start := version
	if start < 0 {
		start = 0
	}
	if start >= int64(len(l.history)) {
		return nil
	}
	return append([]CommitRecord(nil), l.history[start:]...)
}

// TailLen reports the current in-memory tail length (observability).
func (l *Log) TailLen() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.tail)
}

// BaselineVersion reports the version the baselines are compacted to.
func (l *Log) BaselineVersion() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.baselineVersion
}
