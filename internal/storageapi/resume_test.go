package storageapi

import (
	"errors"
	"testing"

	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/vector"
)

// TestReadRowsResumesAtFailedFile: a mid-stream transient fault must
// not lose or duplicate rows — the stream cursor rolls back so the
// retried ReadRows call picks up exactly the file that failed.
func TestReadRowsResumesAtFailedFile(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 10)
	ev.srv.Res = resilience.NoRetry() // surface the raw fault to the client

	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, MaxStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.Streams) != 1 {
		t.Fatalf("streams = %d", len(sess.Streams))
	}
	stream := sess.Streams[0]

	// First file reads clean.
	payload, err := ev.srv.ReadRows(sess.ID, stream)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	collect := func(payload []byte) {
		b, err := vector.DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		col := b.Column("id")
		for i := 0; i < b.N; i++ {
			id := col.Value(i).AsInt()
			if ids[id] {
				t.Fatalf("row id %d delivered twice", id)
			}
			ids[id] = true
		}
	}
	collect(payload)

	// Second file faults mid-stream.
	ev.store.FailNext(1)
	if _, err := ev.srv.ReadRows(sess.ID, stream); !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}

	// The same call retried resumes at the failed file; draining the
	// stream yields every remaining row exactly once.
	for {
		payload, err := ev.srv.ReadRows(sess.ID, stream)
		if errors.Is(err, ErrEndOfStream) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		collect(payload)
	}
	if len(ids) != 40 {
		t.Fatalf("delivered %d distinct rows, want 40", len(ids))
	}
}

// TestReadRowsRetriesAbsorbFault: under the default policy the client
// never sees the fault at all.
func TestReadRowsRetriesAbsorbFault(t *testing.T) {
	ev := newEnv(t)
	ev.createSales(t, 4, 10)

	sess, err := ev.srv.CreateReadSession(ReadSessionRequest{
		Table: "ds.sales", Principal: adminP, MaxStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ev.srv.UseObs(reg)
	ev.store.FailNext(1)
	batch, err := ev.srv.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if batch.N != 40 {
		t.Fatalf("rows = %d", batch.N)
	}
	if reg.Get("resilience.retries") == 0 {
		t.Fatal("expected a metered retry")
	}
}
