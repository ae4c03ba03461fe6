package inference

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"biglake/internal/engine"
	"biglake/internal/mlmodel"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// RemoteRTT is the per-request network overhead of calling an external
// model service from a Dremel worker (§4.2: "there is an extra
// communication cost to ship data back and forth").
const RemoteRTT = 8 * time.Millisecond

// RemoteServiceTime is the simulated per-batch serving time of the
// external endpoint.
const RemoteServiceTime = 20 * time.Millisecond

// ModelServer hosts models behind an HTTP endpoint — the Vertex AI
// serving platform stand-in. It is a real net/http server; simulated
// time models its bounded autoscaling agility: requests reserve
// serving slots on a virtual timeline with MaxConcurrent parallel
// slots, so a burst beyond capacity queues (§4.2: "external AI
// services tend to be more limited in terms of auto scaling agility").
type ModelServer struct {
	URL string

	clock *sim.Clock
	ln    net.Listener
	srv   *http.Server

	mu       sync.Mutex
	models   map[string]*mlmodel.Classifier
	parsers  map[string]*mlmodel.DocParser
	lanes    []time.Duration // virtual per-lane next-free times
	Requests int64
}

// MaxConcurrent is the endpoint's fixed serving capacity.
const MaxConcurrent = 4

// StartModelServer launches a model server on a loopback port.
func StartModelServer(clock *sim.Clock) (*ModelServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ms := &ModelServer{
		URL:     "http://" + ln.Addr().String(),
		clock:   clock,
		ln:      ln,
		models:  make(map[string]*mlmodel.Classifier),
		parsers: make(map[string]*mlmodel.DocParser),
		lanes:   make([]time.Duration, MaxConcurrent),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict/", ms.handlePredict)
	ms.srv = &http.Server{Handler: mux}
	go ms.srv.Serve(ln) //nolint:errcheck // closed on shutdown
	return ms, nil
}

// Close shuts the server down.
func (ms *ModelServer) Close() error { return ms.srv.Close() }

// Host registers a classifier on the endpoint.
func (ms *ModelServer) Host(c *mlmodel.Classifier) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.models[c.Name] = c
}

// reserveSlot books a virtual serving slot and returns the queueing
// delay before service starts.
func (ms *ModelServer) reserveSlot(now time.Duration) time.Duration {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	best := 0
	for i, free := range ms.lanes {
		if free < ms.lanes[best] {
			best = i
		}
	}
	start := now
	if ms.lanes[best] > start {
		start = ms.lanes[best]
	}
	ms.lanes[best] = start + RemoteServiceTime
	return start - now
}

type predictRequest struct {
	Instances []string `json:"instances"` // base64 tensors
}

type predictResponse struct {
	Predictions []string    `json:"predictions"`
	Scores      [][]float64 `json:"scores"`
	Error       string      `json:"error,omitempty"`
}

func (ms *ModelServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Path[len("/v1/predict/"):]
	ms.mu.Lock()
	model := ms.models[name]
	ms.Requests++
	ms.mu.Unlock()
	enc := json.NewEncoder(w)
	if model == nil {
		w.WriteHeader(http.StatusNotFound)
		enc.Encode(predictResponse{Error: fmt.Sprintf("no model %q", name)}) //nolint:errcheck
		return
	}
	var req predictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		w.WriteHeader(http.StatusBadRequest)
		enc.Encode(predictResponse{Error: err.Error()}) //nolint:errcheck
		return
	}
	resp := predictResponse{}
	for _, inst := range req.Instances {
		raw, err := base64.StdEncoding.DecodeString(inst)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			enc.Encode(predictResponse{Error: err.Error()}) //nolint:errcheck
			return
		}
		tensor, err := mlmodel.DecodeTensor(raw)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			enc.Encode(predictResponse{Error: err.Error()}) //nolint:errcheck
			return
		}
		label, scores, err := model.Predict(tensor)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			enc.Encode(predictResponse{Error: err.Error()}) //nolint:errcheck
			return
		}
		resp.Predictions = append(resp.Predictions, label)
		resp.Scores = append(resp.Scores, scores)
	}
	enc.Encode(resp) //nolint:errcheck
}

// QueueDelayFor exposes slot booking for the runtime's latency
// accounting (the caller charges its own track).
func (ms *ModelServer) QueueDelayFor(now time.Duration) time.Duration {
	return ms.reserveSlot(now)
}

// remotePredict calls the model's HTTP endpoint with the batch's
// tensors as raw JSON and parses the predictions (§4.2.2
// customer-owned models on Vertex AI).
func (rt *Runtime) remotePredict(ctx *engine.QueryContext, model *Model, input *vector.Batch) (*vector.Batch, error) {
	ti, err := tensorColumn(input)
	if err != nil {
		return nil, err
	}
	tensors := input.Cols[ti].Decode()
	req := predictRequest{}
	var payloadBytes int64
	for i := 0; i < tensors.Len; i++ {
		raw := []byte(tensors.Strs[i])
		payloadBytes += int64(len(raw))
		req.Instances = append(req.Instances, base64.StdEncoding.EncodeToString(raw))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	// Latency: RTT + payload streaming + capacity-bound queueing +
	// service time.
	delay := RemoteRTT + sim.StreamTime(int64(len(body)), sim.GCP.EgressPerMB)
	if model.queue != nil {
		delay += model.queue(rt.Clock.Now() + delay)
	}
	delay += RemoteServiceTime
	rt.Clock.Advance(delay)

	httpResp, err := http.Post(model.Endpoint+"/v1/predict/"+model.Name, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("inference: remote call: %w", err)
	}
	defer httpResp.Body.Close()
	var resp predictResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("inference: bad remote response: %w", err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("inference: remote model error: %s", resp.Error)
	}
	if len(resp.Predictions) != tensors.Len {
		return nil, fmt.Errorf("inference: remote returned %d predictions for %d inputs", len(resp.Predictions), tensors.Len)
	}
	rt.Obs.Counter("inference.remote_inferences").Add(int64(tensors.Len))
	rt.Obs.Counter("inference.remote_payload_bytes").Add(payloadBytes)

	fields := append([]vector.Field{}, input.Schema.Fields...)
	fields = append(fields, vector.Field{Name: "predictions", Type: vector.String})
	cols := append([]*vector.Column{}, input.Cols...)
	cols = append(cols, vector.NewStringColumn(resp.Predictions))
	return vector.NewBatch(vector.Schema{Fields: fields}, cols)
}

// StartServer launches a model-serving endpoint on the runtime's
// clock (the Vertex AI stand-in).
func (rt *Runtime) StartServer() (*ModelServer, error) {
	return StartModelServer(rt.Clock)
}

// ConnectRemote wires a registered remote model to a live server,
// including its queueing behaviour.
func (rt *Runtime) ConnectRemote(name string, server *ModelServer) error {
	m, err := rt.Model(name)
	if err != nil {
		return err
	}
	m.Remote = true
	m.Endpoint = server.URL
	m.queue = server.QueueDelayFor
	return nil
}
