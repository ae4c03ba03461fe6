package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"biglake/internal/bigmeta"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sim"
)

func testWorld(t *testing.T) (*objstore.Store, objstore.Credential, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.ProfileFor("gcp"), clock)
	cred := objstore.Credential{Principal: "admin@corp"}
	if err := store.CreateBucket(cred, "lake"); err != nil {
		t.Fatal(err)
	}
	return store, cred, clock
}

func TestJournalRoundTrip(t *testing.T) {
	store, cred, clock := testWorld(t)
	j, err := Open(store, cred, "lake", "")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j.AppendIntent("tx-1", "alice@corp", []string{"t/data/a.blk"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommit(bigmeta.TxCommit{
		TxnID: "tx-1", IntentSeq: seq, Principal: "alice@corp", Version: 1,
		Deltas: map[string]bigmeta.TableDelta{"t": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "t/data/a.blk", Size: 3}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendIntent("tx-2", "alice@corp", []string{"t/data/b.blk"}); err != nil {
		t.Fatal(err)
	}

	// A second Open resumes at the right slot.
	j2, err := Open(store, cred, "lake", "")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 3 {
		t.Fatalf("reopened Seq = %d, want 3", j2.Seq())
	}
	recs, err := j2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Kind != KindIntent || recs[1].Kind != KindCommit || recs[2].Kind != KindIntent {
		t.Fatalf("records = %+v", recs)
	}

	rec, err := Recover(j2, clock)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Log.Version() != 1 {
		t.Fatalf("recovered version = %d", rec.Log.Version())
	}
	if v, ok := rec.Log.AppliedTx("tx-1"); !ok || v != 1 {
		t.Fatalf("AppliedTx(tx-1) = %d,%v", v, ok)
	}
	if got := rec.Report.UnsealedIntents; len(got) != 1 || got[0] != "tx-2" {
		t.Fatalf("unsealed = %v", got)
	}
	if got := rec.Report.OrphanCandidates; len(got) != 1 || got[0] != "t/data/b.blk" {
		t.Fatalf("orphan candidates = %v", got)
	}
}

func TestGCOrphansKeepsHistoryReferencedFiles(t *testing.T) {
	store, cred, clock := testWorld(t)
	put := func(key string) {
		t.Helper()
		if _, err := store.Put(cred, "lake", key, []byte("xyz"), "application/x-blk"); err != nil {
			t.Fatal(err)
		}
	}
	put("t/data/live.blk")
	put("t/data/rewritten.blk") // referenced, later removed by compaction
	put("t/data/orphan.blk")    // PUT by a crashed tx, never sealed

	log := bigmeta.NewLog(clock)
	if _, err := log.Commit("a@corp", map[string]bigmeta.TableDelta{"t": {Added: []bigmeta.FileEntry{
		{Bucket: "lake", Key: "t/data/live.blk", Size: 3},
		{Bucket: "lake", Key: "t/data/rewritten.blk", Size: 3},
	}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Commit("a@corp", map[string]bigmeta.TableDelta{"t": {Removed: []string{"t/data/rewritten.blk"}}}); err != nil {
		t.Fatal(err)
	}

	rep, err := GCOrphans(store, cred, "lake", []string{"t/data/"}, log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 {
		t.Fatalf("scanned = %d", rep.Scanned)
	}
	if len(rep.Deleted) != 1 || rep.Deleted[0] != "t/data/orphan.blk" || rep.Bytes != 3 {
		t.Fatalf("deleted = %v bytes = %d", rep.Deleted, rep.Bytes)
	}
	// The time-travel file survives even though the latest snapshot
	// removed it.
	if _, err := store.Head(cred, "lake", "t/data/rewritten.blk"); err != nil {
		t.Fatalf("rewritten.blk was GC'd: %v", err)
	}
}

func TestReplayedCommitIsExactNoop(t *testing.T) {
	store, cred, clock := testWorld(t)
	j, err := Open(store, cred, "lake", "")
	if err != nil {
		t.Fatal(err)
	}
	log := bigmeta.NewLog(clock)
	log.AttachJournal(j)
	deltas := map[string]bigmeta.TableDelta{"t": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: "t/data/a.blk"}}}}
	v1, err := log.CommitTx("a@corp", bigmeta.TxOptions{TxnID: "tx-dup"}, deltas)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := log.CommitTx("a@corp", bigmeta.TxOptions{TxnID: "tx-dup"}, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || log.Version() != v1 {
		t.Fatalf("replay not a no-op: v1=%d v2=%d version=%d", v1, v2, log.Version())
	}
	// The journal must hold exactly one sealed commit.
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
}

// tornWorld builds a journal with two fully sealed transactions, each
// of which PUT its declared data file before sealing:
//
//	seq 1  intent tx-a {t/data/a.blk}
//	seq 2  commit tx-a (version 1)
//	seq 3  intent tx-b {t/data/b.blk}
//	seq 4  commit tx-b (version 2)   <- the tail, damaged by the tests
//
// It returns the journal plus the key of the tail commit record.
func tornWorld(t *testing.T) (*objstore.Store, objstore.Credential, *sim.Clock, *Journal, string) {
	t.Helper()
	store, cred, clock := testWorld(t)
	j, err := Open(store, cred, "lake", "")
	if err != nil {
		t.Fatal(err)
	}
	seal := func(txn, key string, version int64) {
		t.Helper()
		seq, err := j.AppendIntent(txn, "alice@corp", []string{key})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Put(cred, "lake", key, []byte("data-"+txn), "application/x-blk"); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCommit(bigmeta.TxCommit{
			TxnID: txn, IntentSeq: seq, Principal: "alice@corp", Version: version,
			Deltas: map[string]bigmeta.TableDelta{"t": {Added: []bigmeta.FileEntry{{Bucket: "lake", Key: key, Size: int64(len("data-" + txn))}}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	seal("tx-a", "t/data/a.blk", 1)
	seal("tx-b", "t/data/b.blk", 2)
	return store, cred, clock, j, j.key(4, KindCommit)
}

// checkDemotedTail asserts the shared outcome of both torn-tail
// corruption modes: the damaged sealed commit is demoted, its
// transaction recovers as an unsealed intent, orphan GC reclaims its
// data file leaving zero orphans, and the integrity counters fired.
func checkDemotedTail(t *testing.T, store *objstore.Store, cred objstore.Credential, clock *sim.Clock, j *Journal, reg *obs.Registry, tailKey string) {
	t.Helper()
	rec, err := Recover(j, clock)
	if err != nil {
		t.Fatalf("recovery must survive a torn tail: %v", err)
	}
	rep := rec.Report
	if rep.DemotedCommits != 1 {
		t.Fatalf("DemotedCommits = %d, want 1 (report %+v)", rep.DemotedCommits, rep)
	}
	if len(rep.CorruptRecords) != 1 || rep.CorruptRecords[0] != tailKey {
		t.Fatalf("CorruptRecords = %v, want [%s]", rep.CorruptRecords, tailKey)
	}
	// tx-a rolled forward; tx-b's commit never durably happened.
	if rep.Commits != 1 || rec.Log.Version() != 1 {
		t.Fatalf("commits = %d version = %d, want 1/1", rep.Commits, rec.Log.Version())
	}
	if _, ok := rec.Log.AppliedTx("tx-a"); !ok {
		t.Fatal("tx-a lost")
	}
	if _, ok := rec.Log.AppliedTx("tx-b"); ok {
		t.Fatal("demoted tx-b rolled forward anyway")
	}
	if len(rep.UnsealedIntents) != 1 || rep.UnsealedIntents[0] != "tx-b" {
		t.Fatalf("UnsealedIntents = %v, want [tx-b]", rep.UnsealedIntents)
	}
	if len(rep.OrphanCandidates) != 1 || rep.OrphanCandidates[0] != "t/data/b.blk" {
		t.Fatalf("OrphanCandidates = %v, want [t/data/b.blk]", rep.OrphanCandidates)
	}

	// Orphan GC reclaims exactly the demoted transaction's debris...
	gc, err := GCOrphans(store, cred, "lake", []string{"t/data/"}, rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	if len(gc.Deleted) != 1 || gc.Deleted[0] != "t/data/b.blk" {
		t.Fatalf("GC deleted %v, want [t/data/b.blk]", gc.Deleted)
	}
	if _, err := store.Head(cred, "lake", "t/data/a.blk"); err != nil {
		t.Fatalf("committed file a.blk was GC'd: %v", err)
	}
	// ...and a second sweep finds nothing: zero orphans remain.
	gc2, err := GCOrphans(store, cred, "lake", []string{"t/data/"}, rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	if len(gc2.Deleted) != 0 {
		t.Fatalf("orphans remain after GC: %v", gc2.Deleted)
	}

	snap := reg.Snapshot()
	if snap.Counters["integrity.detected.wal"] == 0 {
		t.Fatal("integrity.detected.wal never incremented")
	}
	if snap.Counters["wal.recover.demoted_commits"] != 1 {
		t.Fatalf("wal.recover.demoted_commits = %d, want 1", snap.Counters["wal.recover.demoted_commits"])
	}
}

// TestRecoverTornTailTruncated: a sealed commit whose durable bytes
// were cut short (crash mid-PUT) must recover as a dropped intent, not
// roll forward garbage and not block replay.
func TestRecoverTornTailTruncated(t *testing.T) {
	store, cred, clock, j, tailKey := tornWorld(t)
	reg := obs.NewRegistry()
	store.UseObs(reg)

	data, _, err := store.Get(cred, "lake", tailKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(cred, "lake", tailKey, data[:len(data)/2], "application/json"); err != nil {
		t.Fatal(err)
	}
	checkDemotedTail(t, store, cred, clock, j, reg, tailKey)
}

// TestRecoverTornTailBitFlip: same contract when the record parses but
// its embedded checksum no longer matches.
func TestRecoverTornTailBitFlip(t *testing.T) {
	store, cred, clock, j, tailKey := tornWorld(t)
	reg := obs.NewRegistry()
	store.UseObs(reg)

	// Bit 83 lands mid-payload: the JSON may or may not still parse,
	// and either way verification must fail.
	if err := store.FlipStoredBit("lake", tailKey, 83); err != nil {
		t.Fatal(err)
	}
	checkDemotedTail(t, store, cred, clock, j, reg, tailKey)
}

// TestRecoverCorruptHistoryCommitRefuses: a checksum-failed commit
// BEHIND verified records is history damage, not a torn tail — rolling
// past it would silently drop a committed transaction, so recovery
// must refuse with a typed integrity error.
func TestRecoverCorruptHistoryCommitRefuses(t *testing.T) {
	store, _, clock, j, _ := tornWorld(t)
	reg := obs.NewRegistry()
	store.UseObs(reg)

	// Damage tx-a's commit (seq 2); tx-b's verified records sit after it.
	if err := store.FlipStoredBit("lake", j.key(2, KindCommit), 83); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(j, clock); err == nil {
		t.Fatal("recovery rolled past a corrupt non-tail commit")
	} else if !errors.Is(err, integrity.ErrCorrupt) {
		t.Fatalf("history damage surfaced untyped: %v", err)
	}
}

// TestRecoverCorruptIntentIsDropped: a corrupt intent (tail or not)
// only makes GC more conservative — recovery proceeds, the sealed
// commits all roll forward, and the record is counted corrupt without
// being demoted (demotion is commit-only).
func TestRecoverCorruptIntentIsDropped(t *testing.T) {
	store, _, clock, j, _ := tornWorld(t)
	reg := obs.NewRegistry()
	store.UseObs(reg)

	if err := store.FlipStoredBit("lake", j.key(3, KindIntent), 83); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(j, clock)
	if err != nil {
		t.Fatalf("recovery must survive a corrupt intent: %v", err)
	}
	if rec.Report.Commits != 2 || rec.Log.Version() != 2 {
		t.Fatalf("commits = %d version = %d, want 2/2", rec.Report.Commits, rec.Log.Version())
	}
	if rec.Report.DemotedCommits != 0 {
		t.Fatalf("DemotedCommits = %d, want 0", rec.Report.DemotedCommits)
	}
	if len(rec.Report.CorruptRecords) != 1 {
		t.Fatalf("CorruptRecords = %v", rec.Report.CorruptRecords)
	}
	if reg.Snapshot().Counters["integrity.detected.wal"] == 0 {
		t.Fatal("integrity.detected.wal never incremented")
	}
}

// TestRecoveryEquivalenceProperty is the S4 property test: for random
// DML histories, SnapshotByReplay on a journal-recovered log is
// bit-identical to Snapshot on the original at every historical
// version, including versions older than a compaction baseline.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			store, cred, clock := testWorld(t)
			j, err := Open(store, cred, "lake", "")
			if err != nil {
				t.Fatal(err)
			}
			log := bigmeta.NewLog(clock)
			log.BaselineEvery = 7 // force auto-compaction mid-history
			log.AttachJournal(j)

			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			tables := []string{"orders", "lineitem", "nation"}
			live := map[string][]string{}
			nextKey := 0
			for i := 0; i < 40; i++ {
				table := tables[rng.Intn(len(tables))]
				d := bigmeta.TableDelta{}
				for n := rng.Intn(3) + 1; n > 0; n-- {
					key := fmt.Sprintf("%s/data/f%04d.blk", table, nextKey)
					nextKey++
					d.Added = append(d.Added, bigmeta.FileEntry{
						Bucket: "lake", Key: key, Size: int64(rng.Intn(4096)),
						RowCount:  int64(rng.Intn(1000)),
						Partition: map[string]string{"date": fmt.Sprintf("2024-01-%02d", rng.Intn(28)+1)},
					})
					live[table] = append(live[table], key)
				}
				// Sometimes remove a previously added file (UPDATE/DELETE
				// rewrites).
				if ks := live[table]; len(ks) > 2 && rng.Intn(3) == 0 {
					idx := rng.Intn(len(ks))
					d.Removed = append(d.Removed, ks[idx])
					live[table] = append(ks[:idx:idx], ks[idx+1:]...)
				}
				opts := bigmeta.TxOptions{TxnID: fmt.Sprintf("trial%d-tx%d", trial, i)}
				if rng.Intn(4) == 0 {
					opts.TxnID = "" // some commits skip idempotency IDs
				}
				if _, err := log.CommitTx("a@corp", opts, map[string]bigmeta.TableDelta{table: d}); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(10) == 0 {
					log.Compact()
				}
			}
			log.Compact() // ensure at least one baseline is in play

			rec, err := Recover(j, clock)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Log.Version() != log.Version() {
				t.Fatalf("recovered version %d != original %d", rec.Log.Version(), log.Version())
			}
			for v := int64(1); v <= log.Version(); v++ {
				for _, table := range tables {
					want, _, err := log.Snapshot(table, v)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := rec.Log.SnapshotByReplay(table, v)
					if err != nil {
						t.Fatal(err)
					}
					wb, _ := json.Marshal(want)
					gb, _ := json.Marshal(got)
					if !reflect.DeepEqual(wb, gb) {
						t.Fatalf("table %s version %d diverges:\n orig: %s\n rcvd: %s", table, v, wb, gb)
					}
				}
			}
		})
	}
}
