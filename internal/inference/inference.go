// Package inference implements the BQML inference engine of §4.2:
// in-engine inference inside Dremel workers (with the Figure 7
// distributed preprocess/infer split and the model-size memory limit)
// and external inference against remote model endpoints (customer
// models on a Vertex-AI-like HTTP serving platform, and first-party
// models like Document AI that read objects directly via signed URLs).
//
// It registers ML.DECODE_IMAGE as an engine scalar function and
// ML.PREDICT / ML.PROCESS_DOCUMENT as table-valued functions.
package inference

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"biglake/internal/engine"
	"biglake/internal/mlmodel"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/shuffle"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Errors returned by the inference runtime.
var (
	ErrNoModel      = errors.New("inference: no such model")
	ErrModelTooBig  = errors.New("inference: model exceeds in-engine memory limit; host it remotely")
	ErrNoTensorCol  = errors.New("inference: input has no tensor column")
	ErrNoURIColumn  = errors.New("inference: input has no uri column")
	ErrBadURI       = errors.New("inference: malformed object uri")
	ErrRemoteNeeded = errors.New("inference: model is remote; no local weights")
)

// MaxModelBytes is the in-engine model size limit: "models greater
// than 2GB cannot be loaded" (§4.2).
const MaxModelBytes = 2 << 30

// SandboxOverheadBytes models the per-worker memory cost of sandboxing
// model execution and unstructured-format parsing (§4.2.1).
const SandboxOverheadBytes = sim.MB / 4

// Workers is the per-stage parallelism for distributed inference.
const Workers = 8

// TensorSide is the model input resolution (the 224x224 of the paper,
// scaled down).
const TensorSide = 16

// Model is a registered BQML model.
type Model struct {
	Name       string
	Classifier *mlmodel.Classifier
	DocParser  *mlmodel.DocParser
	// Remote models execute against Endpoint instead of in-engine.
	Remote   bool
	Endpoint string
	// queue books a serving slot on the remote endpoint's virtual
	// capacity timeline (set by ConnectRemote).
	queue func(now time.Duration) time.Duration
}

// MemoryStats reports worker memory and wire behaviour of one
// inference run — the observables of E7.
type MemoryStats struct {
	// PeakWorkerBytes is the largest simultaneous footprint any
	// single worker held.
	PeakWorkerBytes int64
	// TensorWireBytes is what preprocessing shipped to inference
	// workers.
	TensorWireBytes int64
	// RawImageBytes is the total raw object bytes fetched.
	RawImageBytes int64
}

// Runtime is the BQML runtime for one engine deployment.
type Runtime struct {
	Auth    *security.Authority
	Stores  map[string]*objstore.Store
	Clock   *sim.Clock
	Shuffle *shuffle.Service
	// Obs is the registry the runtime (and its shuffle) counts into,
	// under "inference.*" and "shuffle.*".
	Obs *obs.Registry

	// Cred reads unstructured objects (the object table's delegated
	// connection credential).
	Cred objstore.Credential

	// Colocate disables the Figure 7 plan split, decoding images and
	// running the model on the same worker (the ablation baseline).
	Colocate bool

	// MaxModelBytes overrides the in-engine limit (tests).
	MaxModelBytes int64

	mu      sync.Mutex
	models  map[string]*Model
	lastRun MemoryStats
}

// NewRuntime builds a runtime.
func NewRuntime(auth *security.Authority, stores map[string]*objstore.Store, clock *sim.Clock, cred objstore.Credential) *Runtime {
	reg := obs.NewRegistry()
	return &Runtime{
		Auth:          auth,
		Stores:        stores,
		Clock:         clock,
		Shuffle:       shuffle.New(clock, reg),
		Obs:           reg,
		Cred:          cred,
		MaxModelBytes: MaxModelBytes,
		models:        make(map[string]*Model),
	}
}

// RegisterModel installs a model under its name.
func (rt *Runtime) RegisterModel(m *Model) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.models[m.Name] = m
}

// Model resolves a registered model.
func (rt *Runtime) Model(name string) (*Model, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	return m, nil
}

// LastRun returns the memory stats of the most recent ML.PREDICT.
func (rt *Runtime) LastRun() MemoryStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.lastRun
}

// Attach registers the ML functions on an engine.
func (rt *Runtime) Attach(eng *engine.Engine) {
	eng.RegisterScalar("ML.DECODE_IMAGE", rt.decodeImage)
	eng.RegisterTVF("ML.PREDICT", rt.predict)
	eng.RegisterTVF("ML.PROCESS_DOCUMENT", rt.processDocument)
}

// parseURI splits "cloud://bucket/key".
func parseURI(uri string) (cloud, bucket, key string, err error) {
	i := strings.Index(uri, "://")
	if i <= 0 {
		return "", "", "", fmt.Errorf("%w: %q", ErrBadURI, uri)
	}
	rest := uri[i+3:]
	j := strings.IndexByte(rest, '/')
	if j <= 0 || j == len(rest)-1 {
		return "", "", "", fmt.Errorf("%w: %q", ErrBadURI, uri)
	}
	return uri[:i], rest[:j], rest[j+1:], nil
}

func (rt *Runtime) fetch(ch sim.Charger, uri string) ([]byte, error) {
	cloud, bucket, key, err := parseURI(uri)
	if err != nil {
		return nil, err
	}
	store, ok := rt.Stores[cloud]
	if !ok {
		return nil, fmt.Errorf("inference: no object store for cloud %q", cloud)
	}
	data, _, err := store.GetOn(ch, rt.Cred, bucket, key)
	return data, err
}

// decodeImage implements ML.DECODE_IMAGE(uri): it fetches each object
// with the delegated credential, decodes and preprocesses it into a
// model input tensor, and returns the serialized tensors as a BYTES
// column. Fetch+decode fan out over preprocess workers.
func (rt *Runtime) decodeImage(ctx *engine.QueryContext, args []*vector.Column) (*vector.Column, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("inference: ML.DECODE_IMAGE expects 1 argument")
	}
	uris := args[0].Decode()
	out := make([]string, uris.Len)
	var rawBytes int64
	var rawMax int64
	var mu sync.Mutex
	tracks := make([]*sim.Track, Workers)
	for i := range tracks {
		tracks[i] = rt.Clock.StartTrack()
	}
	var wg sync.WaitGroup
	errs := make(chan error, uris.Len)
	sem := make(chan struct{}, Workers)
	for i := 0; i < uris.Len; i++ {
		if uris.Value(i).IsNull() {
			continue
		}
		wg.Add(1)
		go func(i int, uri string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			data, err := rt.fetch(tracks[i%Workers], uri)
			if err != nil {
				errs <- err
				return
			}
			tensor, err := mlmodel.Preprocess(data, TensorSide)
			if err != nil {
				errs <- fmt.Errorf("inference: %s: %w", uri, err)
				return
			}
			mu.Lock()
			rawBytes += int64(len(data))
			if int64(len(data)) > rawMax {
				rawMax = int64(len(data))
			}
			mu.Unlock()
			out[i] = string(tensor.Encode())
		}(i, uris.Value(i).S)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	for _, tr := range tracks {
		tr.Join()
	}
	rt.mu.Lock()
	rt.lastRun = MemoryStats{RawImageBytes: rawBytes, PeakWorkerBytes: rawMax + SandboxOverheadBytes}
	rt.mu.Unlock()
	rt.Obs.Counter("inference.images_decoded").Add(int64(uris.Len))
	return &vector.Column{Type: vector.Bytes, Len: uris.Len, Enc: vector.Plain, Strs: out}, nil
}

// tensorColumn locates the input tensor column (first BYTES column).
func tensorColumn(input *vector.Batch) (int, error) {
	for i, f := range input.Schema.Fields {
		if f.Type == vector.Bytes {
			return i, nil
		}
	}
	return -1, ErrNoTensorCol
}

// predict implements ML.PREDICT. For local models it runs the Figure 7
// distributed plan: tensors travel through the shuffle tier to
// inference workers, so raw images and model weights never share a
// worker. For remote models it calls the model endpoint.
func (rt *Runtime) predict(ctx *engine.QueryContext, modelName string, input *vector.Batch) (*vector.Batch, error) {
	model, err := rt.Model(modelName)
	if err != nil {
		return nil, err
	}
	if model.Remote {
		return rt.remotePredict(ctx, model, input)
	}
	if model.Classifier == nil {
		return nil, fmt.Errorf("inference: model %q is not a classifier", modelName)
	}
	if model.Classifier.SizeBytes > rt.maxModel() {
		return nil, fmt.Errorf("%w: %q is %d bytes (limit %d)", ErrModelTooBig, modelName, model.Classifier.SizeBytes, rt.maxModel())
	}

	ti, err := tensorColumn(input)
	if err != nil {
		return nil, err
	}
	tensors := input.Cols[ti].Decode()

	// Exchange tensors worker->worker through the shuffle tier
	// (Figure 7). The payload accounting is the experiment observable.
	sessID, err := rt.Shuffle.CreateSession(Workers)
	if err != nil {
		return nil, err
	}
	defer rt.Shuffle.Drop(sessID)
	var wireBytes int64
	for i := 0; i < tensors.Len; i++ {
		payload := []byte(tensors.Strs[i])
		wireBytes += int64(len(payload))
		if err := rt.Shuffle.Write(sessID, i%Workers, payload); err != nil {
			return nil, err
		}
	}
	if err := rt.Shuffle.Seal(sessID); err != nil {
		return nil, err
	}

	// Inference workers each hold the model plus one tensor at a time.
	predictions := make([]string, tensors.Len)
	tracks := make([]*sim.Track, Workers)
	for i := range tracks {
		tracks[i] = rt.Clock.StartTrack()
	}
	var wg sync.WaitGroup
	errs := make(chan error, Workers)
	workerMax := make([]int64, Workers)
	for w := 0; w < Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payloads, err := rt.Shuffle.Read(sessID, w)
			if err != nil {
				errs <- err
				return
			}
			for j, payload := range payloads {
				tensor, err := mlmodel.DecodeTensor(payload)
				if err != nil {
					errs <- err
					return
				}
				label, _, err := model.Classifier.Predict(tensor)
				if err != nil {
					errs <- err
					return
				}
				// Row i was routed to partition i%Workers in order.
				predictions[w+j*Workers] = label
				if int64(len(payload)) > workerMax[w] {
					workerMax[w] = int64(len(payload))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	var maxTensor int64
	for _, m := range workerMax {
		if m > maxTensor {
			maxTensor = m
		}
	}
	for _, tr := range tracks {
		tr.Join()
	}

	rt.mu.Lock()
	prev := rt.lastRun
	stats := MemoryStats{
		TensorWireBytes: wireBytes,
		RawImageBytes:   prev.RawImageBytes,
	}
	if rt.Colocate {
		// Ablation: one worker decodes the raw image AND hosts the
		// model.
		stats.PeakWorkerBytes = prev.PeakWorkerBytes + model.Classifier.SizeBytes
		stats.TensorWireBytes = 0
	} else {
		infPeak := model.Classifier.SizeBytes + maxTensor + SandboxOverheadBytes
		stats.PeakWorkerBytes = prev.PeakWorkerBytes // preprocess worker
		if infPeak > stats.PeakWorkerBytes {
			stats.PeakWorkerBytes = infPeak
		}
	}
	rt.lastRun = stats
	rt.mu.Unlock()
	rt.Obs.Counter("inference.inferences").Add(int64(tensors.Len))

	fields := append([]vector.Field{}, input.Schema.Fields...)
	fields = append(fields, vector.Field{Name: "predictions", Type: vector.String})
	cols := append([]*vector.Column{}, input.Cols...)
	cols = append(cols, vector.NewStringColumn(predictions))
	return vector.NewBatch(vector.Schema{Fields: fields}, cols)
}

func (rt *Runtime) maxModel() int64 {
	if rt.MaxModelBytes > 0 {
		return rt.MaxModelBytes
	}
	return MaxModelBytes
}

// processDocument implements ML.PROCESS_DOCUMENT for first-party
// models: Dremel never reads the documents; it passes signed URLs to
// the service, which fetches objects directly (§4.2.2). Extracted
// entities are flattened into output columns.
func (rt *Runtime) processDocument(ctx *engine.QueryContext, modelName string, input *vector.Batch) (*vector.Batch, error) {
	model, err := rt.Model(modelName)
	if err != nil {
		return nil, err
	}
	if model.DocParser == nil {
		return nil, fmt.Errorf("inference: model %q is not a document processor", modelName)
	}
	ui := input.Schema.Index("uri")
	if ui < 0 {
		return nil, ErrNoURIColumn
	}
	uris := input.Cols[ui].Decode()

	// Mint signed URLs so the external service can fetch the objects
	// without Dremel touching the bytes — the governance umbrella
	// outside BigQuery (§4.1).
	type parsed struct {
		entities map[string]string
		err      error
	}
	results := make([]parsed, uris.Len)
	tracks := make([]*sim.Track, Workers)
	for i := range tracks {
		tracks[i] = rt.Clock.StartTrack()
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, Workers)
	for i := 0; i < uris.Len; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			uri := uris.Value(i).S
			cloud, bucket, key, err := parseURI(uri)
			if err != nil {
				results[i] = parsed{err: err}
				return
			}
			store, ok := rt.Stores[cloud]
			if !ok {
				results[i] = parsed{err: fmt.Errorf("inference: no store for %q", cloud)}
				return
			}
			url, err := store.SignURL(rt.Cred, bucket, key, 5*time.Minute)
			if err != nil {
				results[i] = parsed{err: err}
				return
			}
			doc, _, err := store.Fetch(url) // the service's direct read
			if err != nil {
				results[i] = parsed{err: err}
				return
			}
			tracks[i%Workers].Advance(2 * time.Millisecond) // service-side parse
			entities, err := model.DocParser.Parse(doc)
			results[i] = parsed{entities: entities, err: err}
		}(i)
	}
	wg.Wait()
	for _, tr := range tracks {
		tr.Join()
	}

	// Flatten: union of entity keys become columns.
	keySet := map[string]bool{}
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		for k := range results[i].entities {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fields := []vector.Field{{Name: "uri", Type: vector.String}}
	for _, k := range keys {
		fields = append(fields, vector.Field{Name: k, Type: vector.String})
	}
	builder := vector.NewBuilder(vector.Schema{Fields: fields})
	for i := 0; i < uris.Len; i++ {
		row := make([]vector.Value, len(fields))
		row[0] = uris.Value(i)
		for j, k := range keys {
			if v, ok := results[i].entities[k]; ok {
				row[j+1] = vector.StringValue(v)
			} else {
				row[j+1] = vector.NullValue
			}
		}
		builder.Append(row...)
	}
	rt.Obs.Counter("inference.documents_processed").Add(int64(uris.Len))
	return builder.Build(), nil
}
