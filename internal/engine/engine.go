// Package engine implements the Dremel stand-in: BigQuery's massively
// parallel in-situ query engine (§2.1). It parses GoogleSQL (via
// internal/sqlparse), plans scans with metadata-cache-driven partition
// and file pruning (§3.3), enforces governance on every scan through
// the shared security.Authority implementation (§3.2), executes joins,
// aggregation and ordering over vectorized batches, supports dynamic
// partition pruning from dimension filters (§3.4), and dispatches the
// ML table-valued functions of §4.2 to a registered inference runtime.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"biglake/internal/arena"
	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/shuffle"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// Errors returned by query execution.
var (
	ErrUnsupported = errors.New("engine: unsupported")
	ErrNoSuchFunc  = errors.New("engine: unknown function")
	ErrSemantic    = errors.New("engine: semantic error")
	// ErrNoTxn reports BEGIN/COMMIT/ROLLBACK reaching the bare engine:
	// transaction control only has meaning inside an interactive
	// session (internal/txn), which intercepts these statements before
	// dispatching to Execute.
	ErrNoTxn = errors.New("engine: transaction control requires an interactive transaction session")
)

// ScanWorkers is the per-scan parallelism of the worker pool.
const ScanWorkers = 16

// QueryRetryBudget is the total number of object-store retries one
// query may spend across all its operations; past it, faults surface
// even if individual operations still have attempts left.
const QueryRetryBudget = 64

// ScalarFunc implements a registered scalar function (e.g.
// ML.DECODE_IMAGE). It receives evaluated argument columns and the
// query context and returns a result column of b.N rows.
type ScalarFunc func(ctx *QueryContext, args []*vector.Column) (*vector.Column, error)

// TVFFunc implements a registered table-valued function (e.g.
// ML.PREDICT): it receives the evaluated input relation and returns
// the output relation.
type TVFFunc func(ctx *QueryContext, model string, input *vector.Batch) (*vector.Batch, error)

// TxnView is the engine-facing surface of an interactive transaction
// session (internal/txn). When a QueryContext carries one, every
// managed-table scan is pinned to the transaction's snapshot version,
// overlaid with the session's buffered (uncommitted) writes, and
// reported back as part of the file-level read set used for optimistic
// conflict detection at commit.
type TxnView interface {
	// SnapshotVersion is the log version every read inside the
	// transaction is pinned to, across all tables.
	SnapshotVersion() int64
	// Overlay returns the session's buffered effect on one table: keys
	// the transaction logically removed (skipped during scan) and
	// batches it logically added (appended after the scan, before the
	// residual WHERE re-check).
	Overlay(table string) (removed map[string]bool, added []*vector.Batch)
	// ObserveRead records the snapshot files a scan consumed, feeding
	// the transaction's read set.
	ObserveRead(table string, files []bigmeta.FileEntry)
}

// Mutator handles DML against managed storage (wired to internal/blmt
// by the top-level client to avoid an import cycle).
type Mutator interface {
	Insert(ctx *QueryContext, table string, rows *vector.Batch) error
	Delete(ctx *QueryContext, table string, where func(*vector.Batch) ([]bool, error)) (int64, error)
	Update(ctx *QueryContext, table string, set func(*vector.Batch) (*vector.Batch, error), where func(*vector.Batch) ([]bool, error)) (int64, error)
	CreateTableAs(ctx *QueryContext, table string, orReplace bool, rows *vector.Batch) error
}

// Options tunes engine behaviour for experiments.
type Options struct {
	// UseMetadataCache enables §3.3 acceleration for tables that have
	// it configured (E1's on/off switch).
	UseMetadataCache bool
	// EnableDPP turns on dynamic partition pruning: selective
	// dimension filters are turned into range predicates on the fact
	// scan (§3.4).
	EnableDPP bool
	// PruneGranularity selects partition-only vs file-level pruning
	// (ablation A1).
	PruneGranularity bigmeta.PruneGranularity
	// MorselWorkers bounds the CPU parallelism of the vectorized join
	// and aggregation kernels. 0 means runtime.GOMAXPROCS capped at 8.
	// Results are bit-identical for every worker count.
	MorselWorkers int
	// EnableScanCache turns on the generation-keyed decoded-file cache:
	// repeated scans of an unchanged object skip both the GET and the
	// decode. Off by default — experiments opt in.
	EnableScanCache bool
	// ScanCacheBytes is the cache's decoded-byte budget (0 = default).
	ScanCacheBytes int64
	// RowAtATimeExec forces the historical row-at-a-time join and
	// aggregation paths; kept as the baseline for the E15 speedup
	// comparison and as the reference arm of differential tests.
	RowAtATimeExec bool
	// SkipQuarantined lets scans skip integrity-quarantined files with
	// a warning event ("integrity.warnings") instead of failing the
	// query with a typed error — an explicit opt-in for
	// availability-over-completeness workloads. Off by default: wrong
	// is worse than down, and silently narrowing results must be a
	// conscious choice.
	SkipQuarantined bool
	// GCLean runs the vectorized path with a recycled per-query arena
	// and dictionary late materialization: kernel scratch and outputs
	// are carved from pooled slabs instead of the heap, and string
	// columns stay dictionary codes through filter/join/group/order,
	// decoding only at result emission. Results are bit-identical to
	// the eager heap path (the oracle matrix runs with it on); it is
	// the baseline-off arm of E20. Ignored under RowAtATimeExec.
	GCLean bool
	// ArenaRetainBytes caps how much slab capacity one recycled arena
	// may keep between queries (0 = arena.DefaultRetainBytes). Size it
	// to the workload's per-query peak: a query whose working set
	// exceeds the cap still runs, but its arena is trimmed back on
	// release and the excess is re-made from the heap next time.
	ArenaRetainBytes int64
}

// DefaultOptions is the production configuration.
func DefaultOptions() Options {
	return Options{
		UseMetadataCache: true,
		EnableDPP:        true,
		PruneGranularity: bigmeta.PruneFiles,
		GCLean:           true,
	}
}

// execWorkers resolves the effective morsel worker count.
func (e *Engine) execWorkers() int {
	if e.Opts.MorselWorkers > 0 {
		return e.Opts.MorselWorkers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Engine is one region's query engine instance.
type Engine struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Meta    *bigmeta.Cache
	Log     *bigmeta.Log
	Clock   *sim.Clock
	Shuffle *shuffle.Service
	Opts    Options
	// Obs is the metrics registry the engine counts into ("engine.*",
	// its policy's "resilience.*", its shuffle's "shuffle.*"). New
	// creates a private one; UseObs installs a shared one.
	Obs *obs.Registry
	// Tracer, when set, records a trace-span tree for every query that
	// does not arrive with one already attached. Nil disables tracing
	// at near-zero cost (nil-span fast paths).
	Tracer *obs.Tracer
	// Res is the retry/hedging policy applied to every object-store
	// operation the engine issues. Nil behaves like resilience.NoRetry.
	Res *resilience.Policy

	// Stores maps cloud name -> that cloud's object store.
	Stores map[string]*objstore.Store

	// Sys serves the virtual "system" dataset: live telemetry
	// (system.jobs, system.metrics, system.slo, ...) synthesized as
	// columnar batches at scan time. Execute records a job record per
	// statement unless the context opts out (the serve layer does, and
	// records at cursor close instead).
	Sys *systables.Provider

	// ManagedCred is the internal credential for BigQuery managed
	// storage (native tables).
	ManagedCred objstore.Credential

	mu      sync.RWMutex
	scalars map[string]ScalarFunc
	tvfs    map[string]TVFFunc
	mutator Mutator

	// ec holds pre-resolved registry handles for the hot mirror path.
	ec engCounters

	// scanCache holds decoded file contents keyed by object generation;
	// nil unless Options.EnableScanCache is set.
	scanCache *scanCache

	// arenas recycles per-query execution arenas when Options.GCLean is
	// set; stats are mirrored into the registry after every query.
	arenas *arena.Pool

	// stmts caches parsed statements by SQL text when Options.GCLean is
	// set. Parsed ASTs are immutable once built — the executor never
	// writes into a statement node — so a repeated statement (the
	// prepared-statement and dashboard pattern) skips the lexer and
	// parser entirely and allocates nothing.
	stmtMu sync.Mutex
	stmts  map[string]sqlparse.Statement
}

// stmtCacheCap bounds the statement cache. Overflow resets the whole
// map rather than tracking recency: the cache exists to make repeated
// statements allocation-free, and an LRU list would put allocations
// back on the hit path it is trying to clear.
const stmtCacheCap = 1024

// New assembles an engine.
func New(cat *catalog.Catalog, auth *security.Authority, meta *bigmeta.Cache, log *bigmeta.Log, clock *sim.Clock, stores map[string]*objstore.Store, opts Options) *Engine {
	reg := obs.NewRegistry()
	res := resilience.DefaultPolicy()
	res.Meter = reg.Prefixed("resilience.")
	eng := &Engine{
		Catalog: cat,
		Auth:    auth,
		Meta:    meta,
		Log:     log,
		Clock:   clock,
		Shuffle: shuffle.New(clock, reg),
		Opts:    opts,
		Obs:     reg,
		Res:     res,
		Stores:  stores,
		scalars: make(map[string]ScalarFunc),
		tvfs:    make(map[string]TVFFunc),
		ec:      resolveEngCounters(reg),
		arenas:  arena.NewPoolSized(0, opts.ArenaRetainBytes),
		Sys:     systables.NewProvider(clock, reg, log),
	}
	if opts.EnableScanCache {
		eng.scanCache = newScanCache(opts.ScanCacheBytes)
		eng.scanCache.observe(eng.ec.cacheEntries, eng.ec.cacheBytes)
	}
	return eng
}

// RegisterScalar installs a scalar function under an upper-case name.
func (e *Engine) RegisterScalar(name string, fn ScalarFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.scalars[name] = fn
}

// RegisterTVF installs a table-valued function.
func (e *Engine) RegisterTVF(name string, fn TVFFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tvfs[name] = fn
}

// SetMutator wires the DML handler.
func (e *Engine) SetMutator(m Mutator) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mutator = m
}

func (e *Engine) scalar(name string) (ScalarFunc, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn, ok := e.scalars[name]
	return fn, ok
}

func (e *Engine) tvf(name string) (TVFFunc, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn, ok := e.tvfs[name]
	return fn, ok
}

// ExecStats records observable execution behaviour for experiments.
type ExecStats struct {
	FilesScanned int64
	FilesPruned  int64
	ListCalls    int64
	FooterReads  int64
	BytesScanned int64
	RowsScanned  int64
	// CacheHits / CacheMisses count scan-cache lookups: a hit serves a
	// file's decoded batch without re-fetching or re-decoding it.
	CacheHits   int64
	CacheMisses int64
	// QuarantineSkips counts quarantined files the scan omitted under
	// Options.SkipQuarantined (each omission also logs a warning).
	QuarantineSkips int64
	SimStart        time.Duration
	SimElapsed      time.Duration
}

// QueryContext carries per-query identity and accounting.
type QueryContext struct {
	Principal security.Principal
	QueryID   string
	Region    string
	// Scope, when set, narrows every delegated credential used by this
	// query to the given object-path prefixes — Omni's per-query
	// credential scoping (§5.3.1), limiting the blast radius of a
	// compromised worker to the paths the query legitimately needs.
	Scope []string
	// Deadline, when > 0, bounds the query to that much simulated time
	// from execution start; once it passes, every further object-store
	// operation fails with resilience.ErrDeadlineExceeded, so a retry
	// storm cannot run unbounded.
	Deadline time.Duration
	// Budget is the per-query retry budget; Execute seeds one from the
	// query ID when unset.
	Budget *resilience.Budget
	Stats  ExecStats
	// Trace is the query's span tree. The code path that starts it owns
	// it: Execute finishes only traces it started itself, so a caller
	// (omni, ExplainAnalyze) that pre-attaches one keeps control of its
	// lifetime.
	Trace *obs.Trace
	// Span is the current parent span; operators nest children under it
	// and restore it on exit. Nil when tracing is off — every span call
	// is nil-safe and allocation-free in that state.
	Span *obs.Span
	// Txn, when set, pins scans to a transaction snapshot and overlays
	// the session's buffered writes (see TxnView).
	Txn TxnView
	// Mutator, when set, overrides the engine's installed DML handler
	// for this query — transaction sessions route DML into their write
	// buffer this way.
	Mutator Mutator

	// SQLText is the statement's source text, recorded into
	// system.jobs. Query sets it; callers that Parse themselves (the
	// serve layer) set it before Execute.
	SQLText string
	// SkipJobRecord suppresses Execute's job recording for this
	// statement. The serve layer sets it and records at cursor close,
	// so every statement lands in system.jobs exactly once.
	SkipJobRecord bool

	// mem is the query's memory policy: the arena every kernel draws
	// scratch and outputs from, plus the late-materialization flag.
	// Execute installs it for the statement's duration and resets it
	// before releasing the arena, so a context reused across statements
	// (txn sessions) never carries a recycled allocator.
	mem vector.Mem
}

// NewContext builds a query context.
func NewContext(p security.Principal, queryID string) *QueryContext {
	return &QueryContext{Principal: p, QueryID: queryID}
}

// Cancel cooperatively kills the query by collapsing its retry budget:
// the next deadline check any operation performs fails with
// resilience.ErrCanceled. Callers that need to cancel from another
// goroutine must seed Budget before execution starts (the serve layer
// does); with a nil Budget this is a no-op.
func (ctx *QueryContext) Cancel() { ctx.Budget.Cancel() }

// Result is a completed query.
type Result struct {
	Batch *vector.Batch
	Stats ExecStats
}

// Query parses and executes one SQL statement on behalf of the
// context's principal.
func (e *Engine) Query(ctx *QueryContext, sql string) (*Result, error) {
	if e.ensureTrace(ctx) {
		defer ctx.Trace.Finish()
	}
	var psp *obs.Span
	if ctx.Span != nil {
		psp = ctx.Span.Child("parse")
	}
	stmt, hit, err := e.Parse(sql)
	if hit && psp != nil {
		psp.SetStr("cache", "hit")
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	if ctx.SQLText == "" {
		ctx.SQLText = sql
	}
	return e.Execute(ctx, stmt)
}

// Parse returns the statement for one SQL text, serving repeats from
// the GC-lean statement cache (hit reports whether it did). Callers
// must treat the returned AST as immutable — it may be shared with
// concurrent queries.
func (e *Engine) Parse(sql string) (stmt sqlparse.Statement, hit bool, err error) {
	if !e.Opts.GCLean {
		stmt, err = sqlparse.Parse(sql)
		return stmt, false, err
	}
	e.stmtMu.Lock()
	stmt, hit = e.stmts[sql]
	e.stmtMu.Unlock()
	if hit {
		return stmt, true, nil
	}
	stmt, err = sqlparse.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	e.stmtMu.Lock()
	if e.stmts == nil || len(e.stmts) >= stmtCacheCap {
		e.stmts = make(map[string]sqlparse.Statement, 64)
	}
	e.stmts[sql] = stmt
	e.stmtMu.Unlock()
	return stmt, false, nil
}

// Execute runs a parsed statement and, unless the context opts out,
// records its terminal state into the system.jobs ring. Recording
// happens strictly after execution returns, so a statement scanning
// system.jobs sees the ring as of before itself — never a partial
// record of its own run (the self-observation rule).
func (e *Engine) Execute(ctx *QueryContext, stmt sqlparse.Statement) (*Result, error) {
	if ctx.SkipJobRecord || !e.Sys.Enabled() {
		return e.executeStmt(ctx, stmt)
	}
	pre := ctx.Stats
	wallStart := time.Now()
	res, err := e.executeStmt(ctx, stmt)
	rec := systables.JobRecord{
		QueryID:         ctx.QueryID,
		Principal:       string(ctx.Principal),
		SQL:             ctx.SQLText,
		Kind:            sqlparse.Kind(stmt),
		Class:           QueryClass(stmt),
		State:           systables.StateDone,
		Start:           ctx.Stats.SimStart,
		ExecSim:         ctx.Stats.SimElapsed,
		Wall:            time.Since(wallStart),
		RowsScanned:     ctx.Stats.RowsScanned - pre.RowsScanned,
		BytesScanned:    ctx.Stats.BytesScanned - pre.BytesScanned,
		CacheHits:       ctx.Stats.CacheHits - pre.CacheHits,
		QuarantineSkips: ctx.Stats.QuarantineSkips - pre.QuarantineSkips,
	}
	if err != nil {
		rec.ErrorClass = systables.ClassifyError(err)
		if rec.ErrorClass == "cancelled" {
			rec.State = systables.StateCancelled
		} else {
			rec.State = systables.StateFailed
		}
	} else if res != nil && res.Batch != nil {
		rec.RowsReturned = int64(res.Batch.N)
	}
	e.Sys.RecordJob(rec)
	return res, err
}

// QueryClass buckets a statement for SLO accounting: selects with
// grouping, joins, or aggregates are "olap", other selects "point",
// DML "dml", transaction control "txn".
func QueryClass(stmt sqlparse.Statement) string {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		if len(s.GroupBy) > 0 || len(s.Joins) > 0 {
			return "olap"
		}
		for _, it := range s.Items {
			if !it.Star && sqlparse.IsAggregate(it.Expr) {
				return "olap"
			}
		}
		return "point"
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt, *sqlparse.CreateTableAsStmt:
		return "dml"
	case *sqlparse.BeginStmt, *sqlparse.CommitStmt, *sqlparse.RollbackStmt:
		return "txn"
	}
	return "other"
}

func (e *Engine) executeStmt(ctx *QueryContext, stmt sqlparse.Statement) (res *Result, err error) {
	owned := e.ensureTrace(ctx)
	pre := ctx.Stats
	parentSpan := ctx.Span
	var exec *obs.Span
	if parentSpan != nil {
		exec = parentSpan.Child("execute")
		ctx.Span = exec
	}
	ctx.Stats.SimStart = e.Clock.Now()
	defer func() {
		ctx.Stats.SimElapsed = e.Clock.Now() - ctx.Stats.SimStart
		if res != nil {
			res.Stats.SimElapsed = ctx.Stats.SimElapsed
		}
		exec.End()
		ctx.Span = parentSpan
		e.mirrorStats(pre, ctx.Stats)
		if owned {
			ctx.Trace.Finish()
		}
	}()
	if e.Opts.GCLean && !e.Opts.RowAtATimeExec && ctx.mem.Al == nil && e.arenas != nil {
		ar := e.arenas.Get()
		ctx.mem = vector.Mem{Al: ar, LateMat: true}
		// Runs before the span-ending defer above (LIFO), so the arena
		// footprint lands on the execute span for EXPLAIN ANALYZE.
		defer func() {
			if exec != nil {
				exec.SetInt("arena_bytes", ar.Bytes())
			}
			ctx.mem = vector.Mem{}
			ar.Release()
			st := e.arenas.Stats()
			e.ec.arenaBytes.Set(st.BytesRetained)
			e.ec.arenaRecycled.Set(st.Recycled)
		}()
	}
	if ctx.Budget == nil {
		ctx.Budget = resilience.NewBudget(e.Clock, QueryRetryBudget, resilience.Seed64(ctx.QueryID))
	}
	if ctx.Deadline > 0 {
		ctx.Budget.SetDeadline(ctx.Stats.SimStart + ctx.Deadline)
	}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		b, err := e.execSelect(ctx, s)
		if err != nil {
			return nil, err
		}
		// Deadline enforcement at completion: a query whose I/O pushed
		// the clock past the deadline is killed even if every individual
		// operation squeaked through its per-attempt check.
		if err := ctx.Budget.CheckDeadline(e.Clock); err != nil {
			return nil, err
		}
		if exec != nil {
			exec.SetInt("rows", int64(b.N))
		}
		// Copy-out boundary: the result must survive the arena being
		// recycled by the next query.
		b = vector.DetachBatch(b)
		return &Result{Batch: b, Stats: ctx.Stats}, nil
	case *sqlparse.InsertStmt:
		return e.execInsert(ctx, s)
	case *sqlparse.UpdateStmt:
		return e.execUpdate(ctx, s)
	case *sqlparse.DeleteStmt:
		return e.execDelete(ctx, s)
	case *sqlparse.CreateTableAsStmt:
		return e.execCTAS(ctx, s)
	case *sqlparse.BeginStmt, *sqlparse.CommitStmt, *sqlparse.RollbackStmt:
		return nil, ErrNoTxn
	}
	return nil, fmt.Errorf("%w: statement %T", ErrUnsupported, stmt)
}

func (e *Engine) store(cloud string) (*objstore.Store, error) {
	st, ok := e.Stores[cloud]
	if !ok {
		return nil, fmt.Errorf("engine: no object store for cloud %q", cloud)
	}
	return st, nil
}

// connectionCred resolves the delegated-access credential for a table
// (§3.1). Native tables use the engine's managed-storage credential.
func (e *Engine) connectionCred(t catalog.Table) (objstore.Credential, error) {
	if t.Type == catalog.Native {
		return e.ManagedCred, nil
	}
	if t.Connection == "" {
		// Legacy external tables use a per-deployment reader
		// credential (the pre-BigLake model with no fine-grained
		// governance attached).
		return e.ManagedCred, nil
	}
	conn, err := e.Auth.Connection(t.Connection)
	if err != nil {
		return objstore.Credential{}, err
	}
	return conn.ServiceAccount, nil
}

// credForCtx resolves the table credential and applies the context's
// per-query scope if any.
func (e *Engine) credForCtx(ctx *QueryContext, t catalog.Table) (objstore.Credential, error) {
	cred, err := e.connectionCred(t)
	if err != nil {
		return objstore.Credential{}, err
	}
	if len(ctx.Scope) == 0 {
		return cred, nil
	}
	return cred.WithScope(ctx.Scope...)
}
