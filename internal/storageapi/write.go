package storageapi

import (
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/vector"
)

func securityPrincipal(p string) security.Principal { return security.Principal(p) }

// WriteMode selects commit semantics for a write stream (§2.2.2).
type WriteMode int

// Write modes.
const (
	// CommittedMode makes rows visible as soon as each append returns
	// (real-time streaming).
	CommittedMode WriteMode = iota
	// PendingMode buffers rows until the stream is finalized and
	// explicitly committed (batch commit), enabling cross-stream
	// transactions.
	PendingMode
	// BufferedMode holds appended rows until the client advances the
	// flush offset with FlushRows; rows up to the flush point become
	// visible, later rows stay buffered.
	BufferedMode
)

func (m WriteMode) String() string {
	switch m {
	case PendingMode:
		return "PENDING"
	case BufferedMode:
		return "BUFFERED"
	}
	return "COMMITTED"
}

type writeStream struct {
	id        string
	table     string
	mode      WriteMode
	principal string
	rows      *vector.Batch
	offset    int64
	// flushed is the row offset already made visible (BufferedMode).
	flushed int64
	// flushSeq numbers this stream's successful flushes; data-file keys
	// derive from it, so a retried flush overwrites its own earlier
	// attempt instead of stranding it.
	flushSeq  int64
	finalized bool
	committed bool
}

// state snapshots the stream's durable fields for sealing inside a
// commit record; atOffset is the row offset the commit makes durable.
func (ws *writeStream) state(atOffset int64) bigmeta.StreamState {
	return bigmeta.StreamState{
		Table:     ws.table,
		Principal: ws.principal,
		Mode:      int(ws.mode),
		Offset:    atOffset,
		FlushSeq:  ws.flushSeq,
		Finalized: ws.finalized,
		Committed: ws.committed,
	}
}

// CreateWriteStream opens a write stream against a managed table.
func (s *Server) CreateWriteStream(principal, table string, mode WriteMode) (string, error) {
	if err := s.Auth.CheckWrite(securityPrincipal(principal), table); err != nil {
		return "", err
	}
	t, err := s.Catalog.Table(table)
	if err != nil {
		return "", err
	}
	if t.Type != catalog.Managed && t.Type != catalog.Native {
		return "", fmt.Errorf("storageapi: write streams require a managed table, %s is %v", table, t.Type)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.wseq++
	id := fmt.Sprintf("writeStreams/%d", s.wseq)
	s.writes[id] = &writeStream{id: id, table: table, mode: mode, principal: principal}
	return id, nil
}

// RestoreStreams reinstalls durable write-stream state after a crash.
// Each restored stream resumes at exactly its last sealed offset:
// buffered-but-unflushed rows died with the process, so clients
// re-append from Offset; appends the crashed process already sealed
// answer ErrOffsetExists, which exactly-once clients treat as success.
func (s *Server) RestoreStreams(states map[string]bigmeta.StreamState) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for id, st := range states {
		s.writes[id] = &writeStream{
			id:        id,
			table:     st.Table,
			mode:      WriteMode(st.Mode),
			principal: st.Principal,
			offset:    st.Offset,
			flushed:   st.Offset,
			flushSeq:  st.FlushSeq,
			finalized: st.Finalized,
			committed: st.Committed,
		}
		// Keep the ID allocator ahead of every restored stream so new
		// streams cannot collide with recovered ones.
		var n int
		if _, err := fmt.Sscanf(id, "writeStreams/%d", &n); err == nil && n > s.wseq {
			s.wseq = n
		}
	}
}

// AppendRows appends a batch at the given offset. Offsets provide
// exactly-once semantics: re-sending an already-applied offset is an
// idempotent no-op reporting ErrOffsetExists; appending beyond the end
// is ErrBadOffset. Pass offset -1 for "at end".
func (s *Server) AppendRows(streamID string, offset int64, rows *vector.Batch) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ws, ok := s.writes[streamID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoStream, streamID)
	}
	if ws.finalized {
		return 0, fmt.Errorf("%w: %s", ErrFinalized, streamID)
	}
	if offset >= 0 {
		if offset < ws.offset {
			return ws.offset, fmt.Errorf("%w: offset %d already applied (next %d)", ErrOffsetExists, offset, ws.offset)
		}
		if offset > ws.offset {
			return ws.offset, fmt.Errorf("%w: offset %d beyond next %d", ErrBadOffset, offset, ws.offset)
		}
	}
	savedRows, savedOffset := ws.rows, ws.offset
	merged, err := vector.AppendBatch(ws.rows, rows)
	if err != nil {
		return ws.offset, err
	}
	ws.rows = merged
	ws.offset += int64(rows.N)
	s.obs.Counter("storageapi.appended_rows").Add(int64(rows.N))

	if ws.mode == CommittedMode {
		if err := s.flushStreamLocked(ws, ws.offset); err != nil {
			// Roll the append back entirely: a committed-mode append is
			// acked only once its rows are committed, so a failed flush
			// must leave the stream where the client left it — the retry
			// re-sends the same offset and succeeds rather than colliding
			// with ErrOffsetExists over rows that never became visible.
			ws.rows, ws.offset = savedRows, savedOffset
			return ws.offset, err
		}
	}
	return ws.offset, nil
}

// flushStreamLocked materializes buffered rows as a data file and
// commits it to the table's transaction log, sealing the stream's
// durable state (offset atOffset, next flush sequence) in the same
// commit record. The protocol is crash-consistent: journal intent →
// data PUT → sealed commit. The data-file key derives from the
// stream's flush sequence, so a retried flush overwrites its own
// earlier attempt; a flush that dies between PUT and seal leaves one
// orphan the journal intent has already declared for GC.
func (s *Server) flushStreamLocked(ws *writeStream, atOffset int64) error {
	if ws.rows == nil || ws.rows.N == 0 {
		return nil
	}
	txnID := fmt.Sprintf("%s:f%d", ws.id, ws.flushSeq)
	if _, done := s.Log.AppliedTx(txnID); done {
		// A crashed predecessor sealed this exact flush; nothing to redo.
		ws.rows = nil
		ws.flushSeq++
		return nil
	}
	t, err := s.Catalog.Table(ws.table)
	if err != nil {
		return err
	}
	store, err := s.store(t.Cloud)
	if err != nil {
		return err
	}
	cred, err := s.credFor(t)
	if err != nil {
		return err
	}
	file, err := colfmt.WriteFile(ws.rows, colfmt.WriterOptions{})
	if err != nil {
		return err
	}
	key := fmt.Sprintf("%sdata/%s-f%06d.blk", t.Prefix, sanitize(ws.id), ws.flushSeq)
	var intentSeq int64
	if s.Journal != nil {
		if intentSeq, err = s.Journal.AppendIntent(txnID, ws.principal, []string{key}); err != nil {
			return err
		}
	}
	s.Crash.At("flush.before_put")
	var info objstore.ObjectInfo
	if err := s.Res.Do(s.Clock, nil, "PUT "+t.Bucket+"/"+key, func() error {
		var pe error
		info, pe = store.Put(cred, t.Bucket, key, file, "application/x-blk")
		return pe
	}); err != nil {
		return err
	}
	s.Crash.At("flush.after_put")
	footer, err := colfmt.ReadFooter(file)
	if err != nil {
		return err
	}
	stats := make(map[string]colfmt.ColumnStats)
	for _, f := range footer.Fields {
		if st, ok := footer.ColumnStatsFor(f.Name); ok {
			stats[f.Name] = st
		}
	}
	sealed := ws.state(atOffset)
	sealed.FlushSeq = ws.flushSeq + 1 // the retried flush mints the next key
	_, err = s.Log.CommitTx(ws.principal, bigmeta.TxOptions{
		TxnID:     txnID,
		IntentSeq: intentSeq,
		Streams:   map[string]bigmeta.StreamState{ws.id: sealed},
	}, map[string]bigmeta.TableDelta{
		ws.table: {Added: []bigmeta.FileEntry{{
			Bucket: t.Bucket, Key: key, Size: info.Size,
			Generation: info.Generation,
			RowCount:   footer.Rows, ColumnStats: stats,
		}}},
	})
	if err != nil {
		return err
	}
	s.Crash.At("flush.after_commit")
	ws.rows = nil
	ws.flushSeq++
	return nil
}

func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == '/' {
			out[i] = '-'
		}
	}
	return string(out)
}

// FlushRows makes a buffered stream's rows visible up to offset
// (exclusive). Flushing at or behind the current flush point is a
// no-op; flushing beyond the appended rows is an error. Returns the
// new flush offset.
func (s *Server) FlushRows(streamID string, offset int64) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ws, ok := s.writes[streamID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoStream, streamID)
	}
	if ws.mode != BufferedMode {
		return 0, fmt.Errorf("storageapi: FlushRows requires a BUFFERED stream, %s is %v", streamID, ws.mode)
	}
	if offset > ws.offset {
		return ws.flushed, fmt.Errorf("%w: flush offset %d beyond appended %d", ErrBadOffset, offset, ws.offset)
	}
	if offset <= ws.flushed {
		return ws.flushed, nil
	}
	// Materialize rows [flushed, offset) as one visible file. The
	// buffered batch holds rows starting at ws.flushed.
	n := int(offset - ws.flushed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cols := make([]*vector.Column, len(ws.rows.Cols))
	for i, c := range ws.rows.Cols {
		cols[i] = vector.Gather(c, idx)
	}
	visible, err := vector.NewBatch(ws.rows.Schema, cols)
	if err != nil {
		return ws.flushed, err
	}
	rest := ws.rows.N - n
	restIdx := make([]int, rest)
	for i := range restIdx {
		restIdx[i] = n + i
	}
	restCols := make([]*vector.Column, len(ws.rows.Cols))
	for i, c := range ws.rows.Cols {
		restCols[i] = vector.Gather(c, restIdx)
	}
	remaining, err := vector.NewBatch(ws.rows.Schema, restCols)
	if err != nil {
		return ws.flushed, err
	}
	saved := ws.rows
	ws.rows = visible
	if err := s.flushStreamLocked(ws, offset); err != nil {
		ws.rows = saved
		return ws.flushed, err
	}
	ws.rows = remaining
	ws.flushed = offset
	return ws.flushed, nil
}

// FinalizeStream seals a stream against further appends and returns
// the final row offset. Finalizing an already-finalized stream is an
// idempotent no-op returning the same offset, and the caller's
// authority over the table is re-verified like every other stream RPC.
func (s *Server) FinalizeStream(streamID string) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ws, ok := s.writes[streamID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoStream, streamID)
	}
	if err := s.Auth.CheckWrite(securityPrincipal(ws.principal), ws.table); err != nil {
		return 0, err
	}
	if ws.finalized {
		return ws.offset, nil
	}
	ws.finalized = true
	return ws.offset, nil
}

// BatchCommitStreams atomically commits a set of finalized pending
// streams into their table(s) — the cross-stream transaction of
// §2.2.2. Streams for different tables commit in one multi-table Big
// Metadata transaction. Committing an already-committed stream is an
// error; crash-safe clients that need a retryable commit use
// BatchCommitStreamsTx.
func (s *Server) BatchCommitStreams(streamIDs []string) error {
	return s.batchCommit("", streamIDs)
}

// BatchCommitStreamsTx is BatchCommitStreams with a client-supplied
// idempotency ID: retrying after a crash or timeout is an exact no-op
// once the original commit sealed, so the transaction applies exactly
// once no matter how many times it is driven to completion.
func (s *Server) BatchCommitStreamsTx(txnID string, streamIDs []string) error {
	if txnID == "" {
		return fmt.Errorf("storageapi: BatchCommitStreamsTx requires a txn ID")
	}
	return s.batchCommit(txnID, streamIDs)
}

// batchStream is one validated stream's prepared work.
type batchStream struct {
	ws    *writeStream
	table catalog.Table
	store *objstore.Store
	cred  objstore.Credential
	file  []byte
	key   string
}

func (s *Server) batchCommit(txnID string, streamIDs []string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()

	if txnID != "" {
		if _, done := s.Log.AppliedTx(txnID); done {
			// The original commit sealed before the caller heard the ack;
			// converge local stream state and succeed idempotently.
			for _, id := range streamIDs {
				if ws, ok := s.writes[id]; ok {
					ws.committed = true
					ws.rows = nil
				}
			}
			return nil
		}
	}

	// Phase 1 — validate every stream before touching the store, so a
	// bad stream ID midway can no longer strand earlier PUTs.
	principal := ""
	var prepared []batchStream
	for _, id := range streamIDs {
		ws, ok := s.writes[id]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoStream, id)
		}
		if !ws.finalized {
			return fmt.Errorf("storageapi: stream %s must be finalized before commit", id)
		}
		if ws.committed {
			if txnID != "" {
				continue // an already-durable member of this transaction
			}
			return fmt.Errorf("storageapi: stream %s already committed", id)
		}
		if ws.mode != PendingMode {
			return fmt.Errorf("storageapi: stream %s is %v, not PENDING", id, ws.mode)
		}
		principal = ws.principal
		if ws.rows == nil || ws.rows.N == 0 {
			prepared = append(prepared, batchStream{ws: ws})
			continue
		}
		t, err := s.Catalog.Table(ws.table)
		if err != nil {
			return err
		}
		store, err := s.store(t.Cloud)
		if err != nil {
			return err
		}
		cred, err := s.credFor(t)
		if err != nil {
			return err
		}
		file, err := colfmt.WriteFile(ws.rows, colfmt.WriterOptions{})
		if err != nil {
			return err
		}
		prepared = append(prepared, batchStream{
			ws: ws, table: t, store: store, cred: cred, file: file,
			key: fmt.Sprintf("%sdata/%s.blk", t.Prefix, sanitize(ws.id)),
		})
	}

	// Phase 2 — declare every key in a journal intent, then PUT. Keys
	// are deterministic per stream, so a crashed attempt's files are
	// overwritten by the retry; a PUT failure aborts the intent and
	// hands the debris to orphan GC.
	var intentSeq int64
	if s.Journal != nil && txnID != "" {
		var keys []string
		for _, b := range prepared {
			if b.file != nil {
				keys = append(keys, b.key)
			}
		}
		var err error
		if intentSeq, err = s.Journal.AppendIntent(txnID, principal, keys); err != nil {
			return err
		}
	}
	deltas := map[string]bigmeta.TableDelta{}
	streams := map[string]bigmeta.StreamState{}
	for _, b := range prepared {
		sealed := b.ws.state(b.ws.offset)
		sealed.Committed = true // committed iff the seal below lands
		streams[b.ws.id] = sealed
		if b.file == nil {
			continue
		}
		s.Crash.At("batch.before_put")
		var info objstore.ObjectInfo
		if err := s.Res.Do(s.Clock, nil, "PUT "+b.table.Bucket+"/"+b.key, func() error {
			var pe error
			info, pe = b.store.Put(b.cred, b.table.Bucket, b.key, b.file, "application/x-blk")
			return pe
		}); err != nil {
			if s.Journal != nil && txnID != "" {
				if aerr := s.Journal.AppendAbort(txnID, intentSeq); aerr != nil {
					return fmt.Errorf("%w (abort also failed: %v)", err, aerr)
				}
			}
			return err
		}
		s.Crash.At("batch.after_put")
		footer, err := colfmt.ReadFooter(b.file)
		if err != nil {
			return err
		}
		stats := make(map[string]colfmt.ColumnStats)
		for _, f := range footer.Fields {
			if st, ok := footer.ColumnStatsFor(f.Name); ok {
				stats[f.Name] = st
			}
		}
		d := deltas[b.ws.table]
		d.Added = append(d.Added, bigmeta.FileEntry{
			Bucket: b.table.Bucket, Key: b.key, Size: info.Size,
			Generation: info.Generation,
			RowCount:   footer.Rows, ColumnStats: stats,
		})
		deltas[b.ws.table] = d
	}

	// Phase 3 — one multi-table commit seals the data files and every
	// stream's committed state atomically.
	if len(deltas) > 0 {
		if _, err := s.Log.CommitTx(principal, bigmeta.TxOptions{
			TxnID:     txnID,
			IntentSeq: intentSeq,
			Streams:   streams,
		}, deltas); err != nil {
			return err
		}
		s.Crash.At("batch.after_commit")
	}
	for _, b := range prepared {
		b.ws.committed = true
		b.ws.rows = nil
	}
	return nil
}
