package storageapi

// Crash-consistency regression tests for the Write API protocols: the
// S1 batch-commit orphan fix, the S2 flush-retry orphan fix, the S3
// idempotent/authorized FinalizeStream, and exactly-once stream resume
// after a simulated process crash. The full every-crash-point sweep
// lives in internal/oracle.

import (
	"errors"
	"fmt"
	"testing"

	"biglake/internal/crashpoint"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/wal"
)

// journaled attaches a durable commit journal and crash injector to an
// env, as the crash-consistent assembly would.
func journaled(t *testing.T, ev *env) *wal.Journal {
	t.Helper()
	j, err := wal.Open(ev.store, ev.cred, "lake", "")
	if err != nil {
		t.Fatal(err)
	}
	ev.log.AttachJournal(j)
	ev.srv.Journal = j
	cp := crashpoint.New()
	ev.srv.Crash = cp
	ev.log.Crash = cp
	return j
}

func dataObjects(ev *env) int {
	return ev.store.ObjectCount("lake", "blmt/events/data/")
}

// S2: a flush whose commit seal fails after the data PUT must not
// strand that file — the retry reuses the same deterministic key, and
// the sealed log ends up referencing exactly one object.
func TestFlushRetryDoesNotOrphan(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	journaled(t, ev)
	id, err := ev.srv.CreateWriteStream(string(aliceP), "ds.events", BufferedMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.srv.AppendRows(id, -1, rowsBatch(0, 10)); err != nil {
		t.Fatal(err)
	}

	// Intent and data PUT land; the seal PUT dies.
	ev.store.FailNextMatching("-commit.rec", 1)
	if _, err := ev.srv.FlushRows(id, 10); err == nil {
		t.Fatal("flush succeeded despite seal failure")
	}
	if n := dataObjects(ev); n != 1 {
		t.Fatalf("%d data objects after failed flush, want 1 (the not-yet-referenced attempt)", n)
	}

	// The retry overwrites the same key instead of minting a second one.
	if off, err := ev.srv.FlushRows(id, 10); err != nil || off != 10 {
		t.Fatalf("retry: off=%d err=%v", off, err)
	}
	if n := dataObjects(ev); n != 1 {
		t.Fatalf("%d data objects after retry, want 1", n)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 1 || files[0].RowCount != 10 {
		t.Fatalf("files = %+v", files)
	}
	// Nothing unreachable: GC finds no orphans.
	rep, err := wal.GCOrphans(ev.store, ev.cred, "lake", []string{"blmt/events/data/"}, ev.log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deleted) != 0 {
		t.Fatalf("GC deleted %v, want none", rep.Deleted)
	}
}

// The committed-mode variant of S2: a failed flush rolls the append
// back entirely, so the client's retry at the same offset succeeds
// instead of hitting ErrOffsetExists over rows that never committed.
func TestCommittedAppendRollsBackOnFlushFailure(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	journaled(t, ev)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", CommittedMode)
	if _, err := ev.srv.AppendRows(id, 0, rowsBatch(0, 5)); err != nil {
		t.Fatal(err)
	}

	ev.store.FailNextMatching("-commit.rec", 1)
	if _, err := ev.srv.AppendRows(id, 5, rowsBatch(5, 5)); err == nil {
		t.Fatal("append succeeded despite seal failure")
	}
	// Retry the exact same append: the offset must still be open.
	if off, err := ev.srv.AppendRows(id, 5, rowsBatch(5, 5)); err != nil || off != 10 {
		t.Fatalf("retry: off=%d err=%v", off, err)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	var rows int64
	for _, f := range files {
		rows += f.RowCount
	}
	if rows != 10 {
		t.Fatalf("committed rows = %d, want 10 (no loss, no duplicates)", rows)
	}
	if n := dataObjects(ev); n != len(files) {
		t.Fatalf("%d objects vs %d referenced files", n, len(files))
	}
}

// S1: a bad stream ID anywhere in the batch fails validation before
// any PUT happens.
func TestBatchCommitValidatesBeforeAnyPut(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
	ev.srv.AppendRows(id, -1, rowsBatch(0, 8))
	ev.srv.FinalizeStream(id)

	err := ev.srv.BatchCommitStreams([]string{id, "writeStreams/999"})
	if !errors.Is(err, ErrNoStream) {
		t.Fatalf("err = %v", err)
	}
	if n := dataObjects(ev); n != 0 {
		t.Fatalf("%d data objects PUT before validation failed, want 0", n)
	}
	// The good stream is untouched and commits cleanly afterwards.
	if err := ev.srv.BatchCommitStreams([]string{id}); err != nil {
		t.Fatal(err)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	if len(files) != 1 || files[0].RowCount != 8 {
		t.Fatalf("files = %+v", files)
	}
}

// S1: a PUT failure midway through the batch aborts the journal intent
// so orphan GC reclaims the earlier streams' files, and the idempotent
// retry commits everything exactly once.
func TestBatchCommitPutFailureIsReclaimedAndRetryable(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	journaled(t, ev)
	var ids []string
	for i := 0; i < 2; i++ {
		id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
		ev.srv.AppendRows(id, -1, rowsBatch(i*10, 10))
		ev.srv.FinalizeStream(id)
		ids = append(ids, id)
	}

	// Kill every attempt at the second stream's PUT (the retry policy
	// makes up to MaxAttempts tries).
	key2 := fmt.Sprintf("data/%s.blk", sanitize(ids[1]))
	ev.store.FailNextMatching(key2, 10)
	if err := ev.srv.BatchCommitStreamsTx("batch-tx", ids); err == nil {
		t.Fatal("batch commit succeeded despite PUT failure")
	}
	if v := ev.log.Version(); v != 0 {
		t.Fatalf("log advanced to %d on a failed batch", v)
	}
	// Stream 1's file is stranded but declared: GC reclaims it.
	rep, err := wal.GCOrphans(ev.store, ev.cred, "lake", []string{"blmt/events/data/"}, ev.log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deleted) != 1 {
		t.Fatalf("GC deleted %v, want exactly the stranded file", rep.Deleted)
	}

	// Same txn ID retries to completion, exactly once.
	ev.store.FailNextMatching("", 0)
	if err := ev.srv.BatchCommitStreamsTx("batch-tx", ids); err != nil {
		t.Fatal(err)
	}
	if err := ev.srv.BatchCommitStreamsTx("batch-tx", ids); err != nil {
		t.Fatalf("idempotent replay errored: %v", err)
	}
	files, _, _ := ev.log.Snapshot("ds.events", -1)
	var rows int64
	for _, f := range files {
		rows += f.RowCount
	}
	if len(files) != 2 || rows != 20 || ev.log.Version() != 1 {
		t.Fatalf("files=%d rows=%d version=%d", len(files), rows, ev.log.Version())
	}
}

// S3: FinalizeStream is idempotent and re-verifies the principal.
func TestFinalizeIdempotentAndAuthorityChecked(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
	ev.srv.AppendRows(id, -1, rowsBatch(0, 7))
	off1, err := ev.srv.FinalizeStream(id)
	if err != nil || off1 != 7 {
		t.Fatalf("off=%d err=%v", off1, err)
	}
	off2, err := ev.srv.FinalizeStream(id)
	if err != nil || off2 != 7 {
		t.Fatalf("re-finalize: off=%d err=%v", off2, err)
	}

	// Demote the stream's principal to viewer: the RPC must now refuse.
	id2, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", PendingMode)
	if err := ev.auth.GrantTable(adminP, "ds.events", aliceP, security.RoleViewer); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.srv.FinalizeStream(id2); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("finalize with revoked write access: err = %v", err)
	}
}

// Exactly-once resume: a committed-mode append that crashes after the
// seal is already durable; the restored stream answers the client's
// retry with ErrOffsetExists (success for an exactly-once client) and
// no row is duplicated or lost.
func TestStreamResumeAfterCrash(t *testing.T) {
	ev := newEnv(t)
	ev.createManaged(t)
	j := journaled(t, ev)
	id, _ := ev.srv.CreateWriteStream(string(aliceP), "ds.events", CommittedMode)
	if _, err := ev.srv.AppendRows(id, 0, rowsBatch(0, 5)); err != nil {
		t.Fatal(err)
	}

	ev.srv.Crash.Reset() // the first append's flush already counted hits
	ev.srv.Crash.Arm("flush.after_commit", 0)
	sig, err := crashpoint.Run(func() error {
		_, e := ev.srv.AppendRows(id, 5, rowsBatch(5, 5))
		return e
	})
	if err != nil || sig == nil || sig.Label != "flush.after_commit" {
		t.Fatalf("sig=%v err=%v", sig, err)
	}

	// "Restart": recover a fresh log and server from the journal alone.
	rec, err := wal.Recover(j, ev.clock)
	if err != nil {
		t.Fatal(err)
	}
	ev.log = rec.Log
	srv2 := NewServer(ev.cat, ev.auth, ev.meta, rec.Log, ev.clock, map[string]*objstore.Store{"gcp": ev.store})
	srv2.ManagedCred = ev.cred
	srv2.Journal = j
	srv2.RestoreStreams(rec.Streams)

	// The crashed append sealed before dying: the retry reports
	// ErrOffsetExists with the stream already past it.
	off, err := srv2.AppendRows(id, 5, rowsBatch(5, 5))
	if !errors.Is(err, ErrOffsetExists) || off != 10 {
		t.Fatalf("resume append: off=%d err=%v", off, err)
	}
	// The next fresh append lands normally.
	if off, err := srv2.AppendRows(id, 10, rowsBatch(10, 5)); err != nil || off != 15 {
		t.Fatalf("next append: off=%d err=%v", off, err)
	}
	files, _, _ := rec.Log.Snapshot("ds.events", -1)
	var rows int64
	for _, f := range files {
		rows += f.RowCount
	}
	if rows != 15 {
		t.Fatalf("rows = %d, want 15", rows)
	}
	// Stream IDs minted after recovery do not collide with restored ones.
	id2, err := srv2.CreateWriteStream(string(aliceP), "ds.events", CommittedMode)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("recovered server re-minted stream ID %s", id2)
	}
}
