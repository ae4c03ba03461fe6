package inference

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/mlmodel"
	"biglake/internal/objstore"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

const adminP = security.Principal("admin@corp")

var classes = []string{"dark", "dim", "bright", "blinding"}

type env struct {
	clock *sim.Clock
	store *objstore.Store
	eng   *engine.Engine
	rt    *Runtime
	cred  objstore.Credential
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@corp"}
	if err := store.CreateBucket(cred, "media"); err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"})
	auth := security.NewAuthority("secret", adminP)
	auth.RegisterConnection(adminP, security.Connection{Name: "conn", ServiceAccount: cred, Cloud: "gcp"})
	stores := map[string]*objstore.Store{"gcp": store}
	meta := bigmeta.NewCache(clock)
	log := bigmeta.NewLog(clock)
	eng := engine.New(cat, auth, meta, log, clock, stores, engine.DefaultOptions())
	eng.ManagedCred = cred
	rt := NewRuntime(auth, stores, clock, cred)
	rt.Attach(eng)
	// Object table over the media bucket.
	if err := cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "files", Type: catalog.Object,
		Cloud: "gcp", Bucket: "media", Prefix: "imgs/", Connection: "conn", MetadataCaching: true,
	}); err != nil {
		t.Fatal(err)
	}
	return &env{clock: clock, store: store, eng: eng, rt: rt, cred: cred}
}

// putImages uploads n images per class.
func (ev *env) putImages(t *testing.T, perClass int) {
	t.Helper()
	rng := sim.NewRNG(77)
	idx := 0
	for class := range classes {
		for i := 0; i < perClass; i++ {
			img := mlmodel.RandomImage(rng, 128, 128, class, len(classes))
			enc, err := mlmodel.EncodeImage(img)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("imgs/c%d-%03d.jpg", class, idx)
			if _, err := ev.store.Put(ev.cred, "media", key, enc, "image/jpeg"); err != nil {
				t.Fatal(err)
			}
			idx++
		}
	}
}

func (ev *env) registerClassifier() *mlmodel.Classifier {
	model := mlmodel.NewClassifier("resnet50", TensorSide, 16, classes, 42)
	ev.rt.RegisterModel(&Model{Name: "ds.resnet50", Classifier: model})
	return model
}

func (ev *env) sql(t *testing.T, q string) *engine.Result {
	t.Helper()
	res, err := ev.eng.Query(engine.NewContext(adminP, "q"), q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestListing1EndToEnd(t *testing.T) {
	// The paper's Listing 1: in-engine image inference over an object
	// table.
	ev := newEnv(t)
	ev.putImages(t, 3)
	ev.registerClassifier()
	res := ev.sql(t, `SELECT uri, predictions FROM
		ML.PREDICT(
			MODEL ds.resnet50,
			(
				SELECT uri, ML.DECODE_IMAGE(uri) AS image
				FROM ds.files
				WHERE content_type = 'image/jpeg'
			)
		)`)
	if res.Batch.N != 12 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	correct := 0
	for i := 0; i < res.Batch.N; i++ {
		row := res.Batch.Row(i)
		uri, pred := row[0].S, row[1].S
		// Key encodes the true class: imgs/c<k>-...
		ci := strings.Index(uri, "imgs/c")
		want := classes[uri[ci+6]-'0']
		if pred == want {
			correct++
		}
	}
	if correct < 10 {
		t.Fatalf("correct predictions %d/12", correct)
	}
}

func TestModelTooBigForInEngine(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 1)
	big := mlmodel.NewClassifier("big", TensorSide, 16, classes, 1)
	big.SizeBytes = MaxModelBytes + 1
	ev.rt.RegisterModel(&Model{Name: "ds.big", Classifier: big})
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"),
		`SELECT predictions FROM ML.PREDICT(MODEL ds.big, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`)
	if !errors.Is(err, ErrModelTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownModel(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 1)
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"),
		`SELECT * FROM ML.PREDICT(MODEL ds.ghost, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`)
	if !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v", err)
	}
}

func TestPredictRequiresTensorColumn(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 1)
	ev.registerClassifier()
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"),
		`SELECT * FROM ML.PREDICT(MODEL ds.resnet50, (SELECT uri FROM ds.files))`)
	if !errors.Is(err, ErrNoTensorCol) {
		t.Fatalf("err = %v", err)
	}
}

func TestDistributedSplitReducesPeakMemory(t *testing.T) {
	// E7: split preprocess/infer keeps raw images and the model on
	// different workers.
	ev := newEnv(t)
	ev.putImages(t, 4)
	model := ev.registerClassifier()
	model.SizeBytes = 64 * sim.MB // pretend it is a hefty model

	query := `SELECT predictions FROM ML.PREDICT(MODEL ds.resnet50, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`

	ev.rt.Colocate = true
	ev.sql(t, query)
	colocated := ev.rt.LastRun()

	ev.rt.Colocate = false
	ev.sql(t, query)
	split := ev.rt.LastRun()

	if split.PeakWorkerBytes >= colocated.PeakWorkerBytes {
		t.Fatalf("split peak %d should be < colocated peak %d", split.PeakWorkerBytes, colocated.PeakWorkerBytes)
	}
	if split.TensorWireBytes == 0 {
		t.Fatal("split plan must ship tensors between workers")
	}
	if split.TensorWireBytes*5 > split.RawImageBytes {
		t.Fatalf("tensor wire bytes %d should be far below raw image bytes %d",
			split.TensorWireBytes, split.RawImageBytes)
	}
}

func TestRemotePredictOverHTTP(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 2)
	model := mlmodel.NewClassifier("resnet50", TensorSide, 16, classes, 42)
	server, err := StartModelServer(ev.clock)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	server.Host(model)
	ev.rt.RegisterModel(&Model{Name: "ds.remote", Classifier: nil})
	if err := ev.rt.ConnectRemote("ds.remote", server); err != nil {
		t.Fatal(err)
	}
	// The remote model uses the classifier's registered name on the
	// endpoint.
	m, _ := ev.rt.Model("ds.remote")
	m.Name = "ds.remote"
	server.mu.Lock()
	server.models["ds.remote"] = model
	server.mu.Unlock()

	res := ev.sql(t, `SELECT predictions FROM ML.PREDICT(MODEL ds.remote, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`)
	if res.Batch.N != 8 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	if server.Requests == 0 {
		t.Fatal("remote endpoint never called")
	}
	for i := 0; i < res.Batch.N; i++ {
		found := false
		for _, c := range classes {
			if res.Batch.Row(i)[0].S == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("prediction %q not a class", res.Batch.Row(i)[0].S)
		}
	}
}

func TestRemoteHasNoSizeLimitButCostsLatency(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 1)
	model := mlmodel.NewClassifier("huge", TensorSide, 16, classes, 1)
	model.SizeBytes = 8 << 30 // 8 GB: impossible in-engine
	server, _ := StartModelServer(ev.clock)
	defer server.Close()
	server.mu.Lock()
	server.models["ds.huge"] = model
	server.mu.Unlock()
	ev.rt.RegisterModel(&Model{Name: "ds.huge"})
	ev.rt.ConnectRemote("ds.huge", server)

	before := ev.clock.Now()
	res := ev.sql(t, `SELECT predictions FROM ML.PREDICT(MODEL ds.huge, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`)
	if res.Batch.N != 4 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	if ev.clock.Now()-before < RemoteRTT {
		t.Fatal("remote inference must pay communication latency")
	}
}

func TestRemoteBurstQueues(t *testing.T) {
	// E8: a burst beyond the endpoint's capacity queues; later
	// requests see increasing delay.
	clock := sim.NewClock()
	server, _ := StartModelServer(clock)
	defer server.Close()
	first := server.QueueDelayFor(0)
	if first != 0 {
		t.Fatalf("first request delay = %v", first)
	}
	for i := 1; i < MaxConcurrent; i++ {
		if d := server.QueueDelayFor(0); d != 0 {
			t.Fatalf("request %d within capacity delayed %v", i, d)
		}
	}
	overflow := server.QueueDelayFor(0)
	if overflow < RemoteServiceTime {
		t.Fatalf("overflow request delay = %v, want >= %v", overflow, RemoteServiceTime)
	}
}

func TestListing2ProcessDocument(t *testing.T) {
	// The paper's Listing 2: first-party document parsing.
	ev := newEnv(t)
	for i := 0; i < 3; i++ {
		doc := mlmodel.MakeInvoice(i, fmt.Sprintf("vendor%d", i), float64(100+i))
		ev.store.Put(ev.cred, "media", fmt.Sprintf("docs/inv%d.pdf", i), doc, "application/pdf")
	}
	cat := ev.eng.Catalog
	cat.CreateTable(catalog.Table{
		Dataset: "ds", Name: "documents", Type: catalog.Object,
		Cloud: "gcp", Bucket: "media", Prefix: "docs/", Connection: "conn", MetadataCaching: true,
	})
	ev.rt.RegisterModel(&Model{Name: "ds.invoice_parser", DocParser: &mlmodel.DocParser{Name: "invoice_parser"}})

	res := ev.sql(t, `SELECT * FROM ML.PROCESS_DOCUMENT(MODEL ds.invoice_parser, TABLE ds.documents)`)
	if res.Batch.N != 3 {
		t.Fatalf("rows = %d", res.Batch.N)
	}
	// Flattened entity columns.
	for _, col := range []string{"uri", "invoice_id", "vendor", "total", "currency"} {
		if res.Batch.Schema.Index(col) < 0 {
			t.Fatalf("missing column %q in %v", col, res.Batch.Schema)
		}
	}
	if v := res.Batch.Column("vendor").Value(0).S; !strings.HasPrefix(v, "vendor") {
		t.Fatalf("vendor = %q", v)
	}
}

func TestProcessDocumentWrongModelKind(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 1)
	ev.registerClassifier()
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"),
		`SELECT * FROM ML.PROCESS_DOCUMENT(MODEL ds.resnet50, TABLE ds.files)`)
	if err == nil || !strings.Contains(err.Error(), "not a document processor") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeImageBadURI(t *testing.T) {
	ev := newEnv(t)
	ev.registerClassifier()
	if _, err := ev.rt.decodeImage(engine.NewContext(adminP, "q"),
		[]*vector.Column{vector.NewStringColumn([]string{"not-a-uri"})}); !errors.Is(err, ErrBadURI) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ev.rt.decodeImage(engine.NewContext(adminP, "q"),
		[]*vector.Column{vector.NewStringColumn([]string{"mars://bucket/key"})}); err == nil {
		t.Fatal("unknown cloud should fail")
	}
}

func TestParseURI(t *testing.T) {
	cloud, bucket, key, err := parseURI("gcp://media/imgs/a.jpg")
	if err != nil || cloud != "gcp" || bucket != "media" || key != "imgs/a.jpg" {
		t.Fatalf("parse = %s %s %s %v", cloud, bucket, key, err)
	}
	for _, bad := range []string{"", "x", "gcp://", "gcp://bucketonly", "gcp://bucket/"} {
		if _, _, _, err := parseURI(bad); err == nil {
			t.Errorf("parseURI(%q) should fail", bad)
		}
	}
}

func TestInEngineScalesWithWorkersRemoteDoesNot(t *testing.T) {
	// E8 shape: a burst of inference work finishes faster in-engine
	// (horizontal scaling) than against a capacity-bound endpoint.
	ev := newEnv(t)
	ev.putImages(t, 8) // 32 images
	model := ev.registerClassifier()

	query := `SELECT predictions FROM ML.PREDICT(MODEL ds.resnet50, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`
	before := ev.clock.Now()
	ev.sql(t, query)
	localTime := ev.clock.Now() - before

	server, _ := StartModelServer(ev.clock)
	defer server.Close()
	server.mu.Lock()
	server.models["ds.remote"] = model
	server.mu.Unlock()
	ev.rt.RegisterModel(&Model{Name: "ds.remote"})
	ev.rt.ConnectRemote("ds.remote", server)
	// Fire a burst of remote queries.
	before = ev.clock.Now()
	for i := 0; i < 6; i++ {
		ev.sql(t, `SELECT predictions FROM ML.PREDICT(MODEL ds.remote, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`)
	}
	remoteTime := ev.clock.Now() - before

	if remoteTime <= localTime {
		t.Fatalf("remote burst %v should cost more than in-engine %v", remoteTime, localTime)
	}
}

func TestSignedURLPathNeverReadByDremel(t *testing.T) {
	// §4.2.2: for first-party models, Dremel passes URIs; the service
	// reads objects directly. We verify document bytes were fetched
	// via signed URLs (meter) rather than plain engine reads.
	ev := newEnv(t)
	doc := mlmodel.MakeInvoice(1, "X", 10)
	ev.store.Put(ev.cred, "media", "docs/a.pdf", doc, "application/pdf")
	ev.eng.Catalog.CreateTable(catalog.Table{
		Dataset: "ds", Name: "documents", Type: catalog.Object,
		Cloud: "gcp", Bucket: "media", Prefix: "docs/", Connection: "conn", MetadataCaching: true,
	})
	ev.rt.RegisterModel(&Model{Name: "ds.p", DocParser: &mlmodel.DocParser{Name: "p"}})
	ev.sql(t, `SELECT * FROM ML.PROCESS_DOCUMENT(MODEL ds.p, TABLE ds.documents)`)
	if got := ev.rt.Obs.Get("inference.documents_processed"); got != 1 {
		t.Fatalf("documents_processed = %d", got)
	}
}

func TestRemoteModelNotFoundOnServer(t *testing.T) {
	ev := newEnv(t)
	ev.putImages(t, 1)
	server, _ := StartModelServer(ev.clock)
	defer server.Close()
	ev.rt.RegisterModel(&Model{Name: "ds.missing"})
	ev.rt.ConnectRemote("ds.missing", server)
	_, err := ev.eng.Query(engine.NewContext(adminP, "q"),
		`SELECT * FROM ML.PREDICT(MODEL ds.missing, (SELECT ML.DECODE_IMAGE(uri) AS image FROM ds.files))`)
	if err == nil || !strings.Contains(err.Error(), "no model") {
		t.Fatalf("err = %v", err)
	}
}

func TestTimestampFilterOnObjectTableWithInference(t *testing.T) {
	// Listing 1's create_time predicate path.
	ev := newEnv(t)
	rng := sim.NewRNG(5)
	img := mlmodel.RandomImage(rng, 32, 32, 0, len(classes))
	enc, _ := mlmodel.EncodeImage(img)
	ev.store.Put(ev.cred, "media", "imgs/old.jpg", enc, "image/jpeg")
	ev.clock.Advance(time.Hour)
	ev.store.Put(ev.cred, "media", "imgs/new.jpg", enc, "image/jpeg")
	ev.registerClassifier()
	cutoff := int64(30 * time.Minute)
	res := ev.sql(t, fmt.Sprintf(`SELECT uri, predictions FROM ML.PREDICT(MODEL ds.resnet50,
		(SELECT uri, ML.DECODE_IMAGE(uri) AS image FROM ds.files
		 WHERE content_type = 'image/jpeg' AND create_time > %d))`, cutoff))
	if res.Batch.N != 1 || !strings.HasSuffix(res.Batch.Row(0)[0].S, "new.jpg") {
		t.Fatalf("rows = %d", res.Batch.N)
	}
}
