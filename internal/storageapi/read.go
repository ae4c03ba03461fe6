// Package storageapi implements the BigQuery Storage APIs of §2.2: the
// Read API (CreateReadSession/ReadRows with parallel streams, filter
// pushdown, column projection, snapshot reads, dynamic stream
// splitting, table statistics, and optional aggregate pushdown) and
// the Write API (multi-stream append with exactly-once offsets,
// pending/committed modes, and cross-stream atomic commits).
//
// The Read API is the trust boundary of §3.2: every batch has row
// policies, column ACLs and masking applied *before* it is serialized
// to the (untrusted) external engine, using the same
// security.Authority implementation the engine's own scans use.
package storageapi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/crashpoint"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
	"biglake/internal/wal"
)

// Errors returned by the storage APIs.
var (
	ErrNoSession    = errors.New("storageapi: no such read session")
	ErrNoStream     = errors.New("storageapi: no such stream")
	ErrEndOfStream  = errors.New("storageapi: end of stream")
	ErrOffsetExists = errors.New("storageapi: rows at offset already appended")
	ErrBadOffset    = errors.New("storageapi: unexpected append offset")
	ErrFinalized    = errors.New("storageapi: stream finalized")
)

// SessionLatency models the server-side cost of creating a read
// session: enumerating/pruning files and persisting stream metadata to
// the small-state store ("expensive on the server side", §3.4).
const SessionLatency = 12 * time.Millisecond

// AggregateRequest asks the server to compute a partial aggregate
// instead of shipping rows (§3.4 future work: aggregate pushdown).
type AggregateRequest struct {
	Column string
	Kind   vector.AggKind
}

// ReadSessionRequest are the CreateReadSession parameters (§2.2.1).
type ReadSessionRequest struct {
	Table     string
	Principal security.Principal
	// Columns projects a subset (nil = all readable columns).
	Columns []string
	// Predicates are pushed-down row restrictions.
	Predicates []colfmt.Predicate
	// SnapshotVersion pins managed-table reads to a log version
	// (-1 = latest). BigLake tables read the current cache snapshot.
	SnapshotVersion int64
	// MaxStreams caps read parallelism (0 = server default).
	MaxStreams int
	// KeepEncodings retains dictionary/RLE encodings on the wire
	// (ablation A4).
	KeepEncodings bool
	// Aggregates, when set, turns the session into an aggregate
	// pushdown session.
	Aggregates []AggregateRequest
	// RowOriented selects the legacy row-oriented reader (the §3.4
	// first prototype; E2's baseline).
	RowOriented bool
}

// ReadSession is the session handle returned to clients.
type ReadSession struct {
	ID      string
	Table   string
	Schema  vector.Schema
	Streams []string
	// Stats carries Big Metadata table statistics for client-side
	// planning (§3.4: "We extended CreateReadSession to return data
	// statistics collected in Big Metadata").
	Stats bigmeta.TableStats
	// EstimatedRows is the post-pruning row estimate.
	EstimatedRows int64
	// Reused reports that an equivalent cached session was returned
	// instead of creating a new one (§3.4 future work: session reuse).
	Reused bool
}

type streamState struct {
	files []bigmeta.FileEntry
	next  int
	done  bool
}

type session struct {
	req    ReadSessionRequest
	table  catalog.Table
	cred   objstore.Credential
	schema vector.Schema // projected, post-governance schema
	// plan is the immutable file partitioning computed at creation;
	// each acquisition of the session (including reuse) gets fresh
	// one-shot streams over it.
	plan    [][]bigmeta.FileEntry
	streams map[string]*streamState
	order   []string
	gen     int
	mu      sync.Mutex
	agg     bool
	aggDone bool
	// budget is the session-lifetime retry allowance shared by every
	// ReadRows call, seeded from the session ID for reproducibility.
	budget *resilience.Budget
}

// openStreams instantiates fresh streams over the session plan and
// returns their names.
func (sess *session) openStreams(id string) []string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.gen++
	sess.aggDone = false
	names := make([]string, len(sess.plan))
	for i, files := range sess.plan {
		name := fmt.Sprintf("%s/streams/g%d-%d", id, sess.gen, i)
		sess.streams[name] = &streamState{files: files}
		names[i] = name
	}
	sess.order = names
	return names
}

// Server is one region's Storage API frontend.
type Server struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Meta    *bigmeta.Cache
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Stores  map[string]*objstore.Store
	// ManagedCred reads native tables.
	ManagedCred objstore.Credential
	// SessionTTL bounds read-session reuse (simulated time).
	SessionTTL time.Duration
	// Res is the retry/hedging policy for object-store reads and
	// write-path data-file puts. Nil behaves like resilience.NoRetry.
	Res *resilience.Policy
	// Journal, when set, opens a durable intent for every write-path
	// transaction before data-file PUTs, so crashes between PUT and
	// commit leave reclaimable (not invisible) debris. The same journal
	// must be attached to Log as its commit sink.
	Journal *wal.Journal
	// Crash marks the write protocols' labeled crash points (nil = none).
	Crash *crashpoint.Injector

	// obs receives the "storageapi.*" counters and, through Res, the
	// retry metrics: a private registry until UseObs installs a shared
	// one.
	obs *obs.Registry

	mu       sync.Mutex
	sessions map[string]*session
	cache    map[string]cachedSession
	seq      int
	wmu      sync.Mutex
	writes   map[string]*writeStream
	wseq     int
}

type cachedSession struct {
	id      string
	expires time.Duration
}

// NewServer assembles a Storage API server.
func NewServer(cat *catalog.Catalog, auth *security.Authority, meta *bigmeta.Cache, log *bigmeta.Log, clock *sim.Clock, stores map[string]*objstore.Store) *Server {
	s := &Server{
		Catalog:    cat,
		Auth:       auth,
		Meta:       meta,
		Log:        log,
		Clock:      clock,
		Stores:     stores,
		SessionTTL: 10 * time.Minute,
		Res:        resilience.DefaultPolicy(),
		sessions:   make(map[string]*session),
		cache:      make(map[string]cachedSession),
		writes:     make(map[string]*writeStream),
	}
	s.UseObs(obs.NewRegistry())
	return s
}

// UseObs points the server's counters, and its retry metrics under
// "resilience.*", at a shared registry. Call during setup.
func (s *Server) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	s.obs = r
	if s.Res != nil {
		s.Res.Meter = r.Prefixed("resilience.")
	}
}

func (s *Server) store(cloud string) (*objstore.Store, error) {
	st, ok := s.Stores[cloud]
	if !ok {
		return nil, fmt.Errorf("storageapi: no object store for cloud %q", cloud)
	}
	return st, nil
}

func (s *Server) credFor(t catalog.Table) (objstore.Credential, error) {
	if t.Connection == "" {
		return s.ManagedCred, nil
	}
	conn, err := s.Auth.Connection(t.Connection)
	if err != nil {
		return objstore.Credential{}, err
	}
	return conn.ServiceAccount, nil
}

func sessionKey(req ReadSessionRequest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%v|%d|%v|%v|%v", req.Table, req.Principal, req.Columns, req.SnapshotVersion, req.KeepEncodings, req.RowOriented, req.Aggregates)
	preds := make([]string, len(req.Predicates))
	for i, p := range req.Predicates {
		preds[i] = p.String()
	}
	sort.Strings(preds)
	sb.WriteString(strings.Join(preds, "&"))
	return sb.String()
}

// DefaultStreams is the stream count when the caller does not specify
// one.
const DefaultStreams = 8

// sessionRetryBudget bounds the total object-store retries one read
// session may spend across all its streams.
const sessionRetryBudget = 64

// CreateReadSession plans a consistent point-in-time read and returns
// stream handles (§2.2.1). Governance is resolved here: selecting a
// column the principal has no access to fails the whole session.
func (s *Server) CreateReadSession(req ReadSessionRequest) (*ReadSession, error) {
	if err := s.Auth.CheckRead(req.Principal, req.Table); err != nil {
		return nil, err
	}
	t, err := s.Catalog.Table(req.Table)
	if err != nil {
		return nil, err
	}

	// Session reuse from the cache (§3.4 future work) — same request
	// shape within the TTL returns the existing session.
	key := sessionKey(req)
	s.mu.Lock()
	if c, ok := s.cache[key]; ok && s.Clock.Now() <= c.expires {
		if sess, ok := s.sessions[c.id]; ok {
			s.mu.Unlock()
			s.obs.Counter("storageapi.sessions_reused").Add(1)
			sess.openStreams(c.id)
			return s.describe(c.id, sess, true), nil
		}
	}
	s.mu.Unlock()

	cred, err := s.credFor(t)
	if err != nil {
		return nil, err
	}

	// Column-level security: fail early on denied columns.
	cols := req.Columns
	if cols == nil {
		for _, f := range t.Schema.Fields {
			cols = append(cols, f.Name)
		}
	}
	for _, d := range s.Auth.ColumnDecisionsFor(req.Principal, req.Table, cols) {
		if d.Denied {
			return nil, fmt.Errorf("%w: column %s.%s", security.ErrDenied, req.Table, d.Column)
		}
	}

	// Enumerate and prune files.
	var files []bigmeta.FileEntry
	switch t.Type {
	case catalog.Native, catalog.Managed:
		files, _, err = s.Log.Snapshot(req.Table, req.SnapshotVersion)
		if err != nil {
			return nil, err
		}
		kept := files[:0]
		for _, f := range files {
			if bigmeta.FileCanMatch(f, req.Predicates, bigmeta.PruneFiles) {
				kept = append(kept, f)
			}
		}
		files = kept
	case catalog.BigLake:
		store, err := s.store(t.Cloud)
		if err != nil {
			return nil, err
		}
		if _, ok := s.Meta.RefreshedAt(req.Table); !ok {
			if _, err := s.Meta.Refresh(req.Table, store, cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{WithFileStats: true, Background: true}); err != nil {
				return nil, err
			}
		}
		files, err = s.Meta.Prune(req.Table, req.Predicates, bigmeta.PruneFiles)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("storageapi: table type %v not readable through the Read API", t.Type)
	}

	// Projected output schema (types may change under masking).
	schema, err := t.Schema.Select(cols)
	if err != nil {
		return nil, err
	}
	for i, d := range s.Auth.ColumnDecisionsFor(req.Principal, req.Table, cols) {
		if d.Mask != vector.MaskNone {
			schema.Fields[i].Type = vector.String
		}
	}

	// Partition files across streams.
	nStreams := req.MaxStreams
	if nStreams <= 0 {
		nStreams = DefaultStreams
	}
	if nStreams > len(files) && len(files) > 0 {
		nStreams = len(files)
	}
	if nStreams == 0 {
		nStreams = 1
	}
	sess := &session{
		req:     req,
		table:   t,
		cred:    cred,
		schema:  schema,
		plan:    make([][]bigmeta.FileEntry, nStreams),
		streams: make(map[string]*streamState),
		agg:     len(req.Aggregates) > 0,
	}
	for i, f := range files {
		sess.plan[i%nStreams] = append(sess.plan[i%nStreams], f)
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("sessions/%d", s.seq)
	s.sessions[id] = sess
	s.cache[key] = cachedSession{id: id, expires: s.Clock.Now() + s.SessionTTL}
	s.mu.Unlock()
	sess.budget = resilience.NewBudget(s.Clock, sessionRetryBudget, resilience.Seed64(id))
	sess.openStreams(id)

	// Server-side session creation cost.
	s.Clock.Advance(SessionLatency)
	s.obs.Counter("storageapi.sessions_created").Add(1)
	return s.describe(id, sess, false), nil
}

func (s *Server) describe(id string, sess *session, reused bool) *ReadSession {
	var all []bigmeta.FileEntry
	for _, part := range sess.plan {
		all = append(all, part...)
	}
	stats := bigmeta.MergeStats(all)
	rows := stats.Rows
	return &ReadSession{
		ID:            id,
		Table:         sess.req.Table,
		Schema:        sess.schema,
		Streams:       append([]string(nil), sess.order...),
		Stats:         stats,
		EstimatedRows: rows,
		Reused:        reused,
	}
}

// ReadRows drains the next chunk of a stream, returning a wire-encoded
// batch. io semantics: (nil, ErrEndOfStream) once the stream is
// exhausted. Each call reads one file's worth of data, applies
// pushdown predicates during the scan, enforces governance, projects,
// and serializes.
func (s *Server) ReadRows(sessionID, streamName string) ([]byte, error) {
	return s.readRowsOn(s.Clock, sessionID, streamName)
}

// ReadRowsOn is ReadRows with latency charged to a parallel client
// track.
func (s *Server) ReadRowsOn(ch sim.Charger, sessionID, streamName string) ([]byte, error) {
	return s.readRowsOn(ch, sessionID, streamName)
}

func (s *Server) readRowsOn(ch sim.Charger, sessionID, streamName string) ([]byte, error) {
	s.mu.Lock()
	sess, ok := s.sessions[sessionID]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSession, sessionID)
	}
	sess.mu.Lock()
	st, ok := sess.streams[streamName]
	if !ok {
		sess.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoStream, streamName)
	}

	if sess.agg {
		// Aggregate pushdown: one result payload on the first stream.
		if sess.aggDone {
			sess.mu.Unlock()
			return nil, ErrEndOfStream
		}
		sess.aggDone = true
		var files []bigmeta.FileEntry
		for _, part := range sess.plan {
			files = append(files, part...)
		}
		sess.mu.Unlock()
		return s.computeAggregates(ch, sess, files)
	}

	if st.next >= len(st.files) {
		st.done = true
		sess.mu.Unlock()
		return nil, ErrEndOfStream
	}
	idx := st.next
	file := st.files[idx]
	st.next++
	sess.mu.Unlock()

	batch, err := s.readGoverned(ch, sess, file)
	if err != nil {
		// Roll the cursor back so the stream resumes at the failed file:
		// a client retrying the same ReadRows call after a transient
		// fault re-reads this file rather than silently skipping it.
		sess.mu.Lock()
		if st.next == idx+1 {
			st.next = idx
		}
		sess.mu.Unlock()
		return nil, err
	}
	payload := vector.EncodeBatch(batch, sess.req.KeepEncodings)
	s.obs.Counter("storageapi.readrows_bytes").Add(int64(len(payload)))
	s.obs.Counter("storageapi.readrows_calls").Add(1)
	return payload, nil
}

// readGoverned reads one file and applies the full governance +
// projection pipeline inside the trust boundary.
func (s *Server) readGoverned(ch sim.Charger, sess *session, file bigmeta.FileEntry) (*vector.Batch, error) {
	store, err := s.store(sess.table.Cloud)
	if err != nil {
		return nil, err
	}
	var data []byte
	if err := s.Res.HedgedDo(ch, sess.budget, "GET "+file.Bucket+"/"+file.Key, func(hch sim.Charger) error {
		d, _, ge := store.GetOn(hch, sess.cred, file.Bucket, file.Key)
		if ge != nil {
			return ge
		}
		data = d
		return nil
	}); err != nil {
		return nil, err
	}

	// Predicates on columns the file physically stores; partition
	// predicates were consumed by pruning, and hive-partitioned files
	// do not store the partition column itself.
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		return nil, fmt.Errorf("storageapi: %s/%s: %w", file.Bucket, file.Key, err)
	}
	fileSchema := footer.Schema()
	var filePreds []colfmt.Predicate
	for _, p := range sess.req.Predicates {
		if fileSchema.Index(p.Column) >= 0 {
			filePreds = append(filePreds, p)
		}
	}

	var batch *vector.Batch
	if sess.req.RowOriented {
		// Legacy pipeline: row-oriented reader, rows re-columnarized.
		r, err := colfmt.NewRowReader(data, nil, filePreds)
		if err != nil {
			return nil, err
		}
		batch, err = r.ReadAllColumnar()
		if err != nil {
			return nil, err
		}
	} else {
		r, err := colfmt.NewVectorizedReader(data, nil, filePreds)
		if err != nil {
			return nil, err
		}
		batch, err = r.ReadAll()
		if err != nil {
			return nil, err
		}
	}

	// Governance: the Read API applies row filters and masking before
	// data leaves the boundary (§3.2).
	governed, err := s.Auth.ApplyGovernance(sess.req.Principal, sess.req.Table, batch)
	if err != nil {
		return nil, err
	}

	cols := sess.req.Columns
	if cols == nil {
		return governed, nil
	}
	return governed.Project(cols)
}

// computeAggregates evaluates the requested partial aggregates
// server-side and returns one small payload.
func (s *Server) computeAggregates(ch sim.Charger, sess *session, files []bigmeta.FileEntry) ([]byte, error) {
	// Accumulate per aggregate.
	n := len(sess.req.Aggregates)
	partials := make([]vector.Value, n)
	counts := make([]int64, n)
	for _, f := range files {
		batch, err := s.readGovernedAll(ch, sess, f)
		if err != nil {
			return nil, err
		}
		for i, a := range sess.req.Aggregates {
			c := batch.Column(a.Column)
			if c == nil {
				return nil, fmt.Errorf("storageapi: aggregate column %q not found", a.Column)
			}
			v := vector.Aggregate(c, a.Kind, nil)
			partials[i] = mergeAgg(a.Kind, partials[i], v)
			counts[i]++
		}
	}
	fields := make([]vector.Field, n)
	builder := make([]*vector.Column, n)
	for i, a := range sess.req.Aggregates {
		v := partials[i]
		typ := v.Type
		if v.IsNull() {
			typ = vector.Int64
		}
		fields[i] = vector.Field{Name: fmt.Sprintf("%s_%s", strings.ToLower(a.Kind.String()), a.Column), Type: typ}
		bl := vector.NewBuilder(vector.NewSchema(fields[i]))
		bl.Append(v)
		builder[i] = bl.Build().Cols[0]
	}
	batch, err := vector.NewBatch(vector.Schema{Fields: fields}, builder)
	if err != nil {
		return nil, err
	}
	payload := vector.EncodeBatch(batch, false)
	s.obs.Counter("storageapi.readrows_bytes").Add(int64(len(payload)))
	s.obs.Counter("storageapi.readrows_calls").Add(1)
	return payload, nil
}

func mergeAgg(kind vector.AggKind, acc, v vector.Value) vector.Value {
	if acc.IsNull() {
		return v
	}
	if v.IsNull() {
		return acc
	}
	switch kind {
	case vector.AggCount, vector.AggSum:
		if acc.Type == vector.Float64 || v.Type == vector.Float64 {
			return vector.FloatValue(acc.AsFloat() + v.AsFloat())
		}
		return vector.IntValue(acc.AsInt() + v.AsInt())
	case vector.AggMin:
		if v.Compare(acc) < 0 {
			return v
		}
		return acc
	case vector.AggMax:
		if v.Compare(acc) > 0 {
			return v
		}
		return acc
	}
	return acc
}

// readGovernedAll is readGoverned without the projection, used by the
// aggregate path (aggregates may reference unprojected columns).
func (s *Server) readGovernedAll(ch sim.Charger, sess *session, file bigmeta.FileEntry) (*vector.Batch, error) {
	saved := sess.req.Columns
	defer func() { sess.req.Columns = saved }()
	sess.req.Columns = nil
	return s.readGoverned(ch, sess, file)
}

// SplitStream divides a stream's remaining work in two for dynamic
// rebalancing (§2.2.1), returning the new stream's name.
func (s *Server) SplitStream(sessionID, streamName string) (string, error) {
	s.mu.Lock()
	sess, ok := s.sessions[sessionID]
	s.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoSession, sessionID)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st, ok := sess.streams[streamName]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoStream, streamName)
	}
	remaining := len(st.files) - st.next
	if remaining < 2 {
		return "", fmt.Errorf("storageapi: stream %s has too little work to split", streamName)
	}
	half := st.next + remaining/2
	newName := fmt.Sprintf("%s-split%d", streamName, len(sess.order))
	sess.streams[newName] = &streamState{files: append([]bigmeta.FileEntry(nil), st.files[half:]...)}
	st.files = st.files[:half]
	sess.order = append(sess.order, newName)
	return newName, nil
}

// ReadAll is a client convenience: drain every stream of a session
// (sequentially) and decode into one batch.
func (s *Server) ReadAll(sess *ReadSession) (*vector.Batch, error) {
	var out *vector.Batch
	for _, stream := range sess.Streams {
		for {
			payload, err := s.ReadRows(sess.ID, stream)
			if errors.Is(err, ErrEndOfStream) {
				break
			}
			if err != nil {
				return nil, err
			}
			b, err := vector.DecodeBatch(payload)
			if err != nil {
				return nil, err
			}
			out, err = vector.AppendBatch(out, b)
			if err != nil {
				return nil, err
			}
		}
		if sess.Streams[0] == stream && len(sess.Streams) > 0 {
			// aggregate sessions answer entirely on the first stream
			s.mu.Lock()
			real, ok := s.sessions[sess.ID]
			s.mu.Unlock()
			if ok && real.agg {
				break
			}
		}
	}
	if out == nil {
		out = vector.EmptyBatch(sess.Schema)
	}
	return out, nil
}
