package oracle

// The differential harness: builds a simulated lakehouse world, fills
// it with generated tables, and runs every generated query through
// the real engine under the full acceleration-configuration matrix —
// {metadata cache on/off} × {DPP on/off} × {prune granularity} ×
// {chaos faults on/off} — comparing each answer against the
// row-at-a-time oracle, before and after DML + BLMT compaction.
//
// Comparison contract: a query whose ORDER BY covers every output
// column is compared as an exact row sequence; anything else is
// compared as a multiset of rendered rows. Under injected faults the
// engine is allowed to *fail* (retry budgets are finite) but never to
// return a wrong answer: an error in a fault cell is counted, a wrong
// row anywhere is a divergence.
//
// On divergence the harness greedily shrinks the statement (drop
// LIMIT/ORDER BY/items/joins/predicate branches) while it still
// reproduces, and reports seed, cell, SQL, minimized SQL, and the
// first differing row.

import (
	"fmt"
	"sort"
	"strings"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/vector"
)

const (
	diffBucket = "lake"
	diffConn   = "conn"
	diffAdmin  = security.Principal("admin@corp")
)

// Config is one cell of the acceleration matrix.
type Config struct {
	Cache       bool
	DPP         bool
	Granularity bigmeta.PruneGranularity
	Faults      bool
	// ScanCache enables the generation-keyed decoded-file cache; the
	// matrix keeps it on everywhere so every differential query also
	// cross-checks cached-decode reuse against the oracle.
	ScanCache bool
}

func (c Config) String() string {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	gran := "partitions"
	if c.Granularity == bigmeta.PruneFiles {
		gran = "files"
	}
	return fmt.Sprintf("cache=%s dpp=%s prune=%s faults=%s scancache=%s",
		onOff(c.Cache), onOff(c.DPP), gran, onOff(c.Faults), onOff(c.ScanCache))
}

// Matrix enumerates all 16 configuration cells.
func Matrix() []Config {
	var out []Config
	for _, cache := range []bool{false, true} {
		for _, dpp := range []bool{false, true} {
			for _, gran := range []bigmeta.PruneGranularity{bigmeta.PrunePartitionsOnly, bigmeta.PruneFiles} {
				for _, faults := range []bool{false, true} {
					out = append(out, Config{Cache: cache, DPP: dpp, Granularity: gran, Faults: faults, ScanCache: true})
				}
			}
		}
	}
	return out
}

// Options configures a differential run.
type Options struct {
	Seed    uint64
	Trials  int // generated worlds; default 2
	Queries int // SELECTs per world per phase; default 70
	Log     func(format string, args ...any)
	// Tracer, when set, records a span tree for every engine query the
	// run executes (profiling soak: set a Cap to bound retention).
	Tracer *obs.Tracer
	// Serve additionally routes every matrix SELECT through a serve
	// session (parse -> prepare -> admit -> paged cursor) on the same
	// engine and diffs the reassembled stream against the direct
	// library execution — the session layer must be invisible to
	// results.
	Serve bool
}

// Report is the outcome of a differential run.
type Report struct {
	Trials      int
	Queries     int // generated statements (SELECT + DML + CTAS)
	Executions  int // engine runs across all matrix cells
	FaultErrors int // engine errors accepted in fault-injection cells
	Divergence  *Divergence
}

// Divergence is one engine-vs-oracle mismatch, minimized.
type Divergence struct {
	Seed   uint64
	Trial  int
	Phase  string // "pre", "dml", or "post" (relative to compaction)
	Cell   Config
	SQL    string
	MinSQL string
	Detail string
}

// Format renders the reproduction recipe a human needs.
func (d *Divergence) Format() string {
	return fmt.Sprintf(
		"divergence: seed=%d trial=%d phase=%s cell={%s}\n  sql: %s\n  minimized: %s\n  %s\n  replay: go test ./internal/oracle -run TestDifferential -seed=%d",
		d.Seed, d.Trial, d.Phase, d.Cell, d.SQL, d.MinSQL, d.Detail, d.Seed)
}

// world is the shared simulated infrastructure for one trial. Every
// matrix cell gets a fresh metadata cache and engine, but the object
// store, catalog, and commit log are shared — that is the state the
// acceleration paths must agree about.
type world struct {
	clock  *sim.Clock
	store  *objstore.Store
	stores map[string]*objstore.Store
	cat    *catalog.Catalog
	auth   *security.Authority
	log    *bigmeta.Log
	mgr    *blmt.Manager
	cred   objstore.Credential
}

func newWorld() (*world, error) {
	clock := sim.NewClock()
	store := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa-lake@corp"}
	if err := store.CreateBucket(cred, diffBucket); err != nil {
		return nil, err
	}
	cat := catalog.New()
	if err := cat.CreateDataset(catalog.Dataset{Name: "ds", Region: "gcp-us", Cloud: "gcp"}); err != nil {
		return nil, err
	}
	auth := security.NewAuthority("secret", diffAdmin)
	if err := auth.RegisterConnection(diffAdmin, security.Connection{
		Name: diffConn, ServiceAccount: cred, Cloud: "gcp",
	}); err != nil {
		return nil, err
	}
	log := bigmeta.NewLog(clock)
	stores := map[string]*objstore.Store{"gcp": store}
	mgr := blmt.New(cat, auth, log, clock, stores)
	mgr.DefaultCloud = "gcp"
	mgr.DefaultBucket = diffBucket
	mgr.DefaultConnection = diffConn
	return &world{
		clock: clock, store: store, stores: stores, cat: cat,
		auth: auth, log: log, mgr: mgr, cred: cred,
	}, nil
}

type harness struct {
	w      *world
	db     *DB
	seed   uint64
	trial  int
	rep    *Report
	logf   func(format string, args ...any)
	tracer *obs.Tracer
	serve  bool
	// sessions caches one serve session per cell engine so the serve
	// arm reuses warmed server state the way a real client would.
	sessions map[*engine.Engine]*serve.Session
}

// serveSession returns (building on first use) the serve-path session
// for one cell engine. Small pages on purpose: most results span
// several pages, so reassembly is actually exercised.
func (h *harness) serveSession(eng *engine.Engine) (*serve.Session, error) {
	if s, ok := h.sessions[eng]; ok {
		return s, nil
	}
	srv := serve.New(eng, nil, serve.Config{PageRows: 7})
	s, err := srv.Open(diffAdmin, fmt.Sprintf("fzs-%d", len(h.sessions)))
	if err != nil {
		return nil, err
	}
	h.sessions[eng] = s
	return s, nil
}

// serveRun executes one SELECT through the serve session path —
// pinning the same query ID as the direct run so the retry budget's
// jitter seed matches — and reassembles the paged stream.
func (h *harness) serveRun(eng *engine.Engine, qid, sql string) (*Resultset, error) {
	sess, err := h.serveSession(eng)
	if err != nil {
		return nil, err
	}
	p, err := sess.Parse(sql)
	if err != nil {
		return nil, err
	}
	p.SetQueryID(qid)
	cur, err := p.Execute()
	if err != nil {
		return nil, err
	}
	b, err := cur.All()
	if err != nil {
		return nil, err
	}
	return FromBatch(b), nil
}

// engineFor builds a fresh engine (and metadata cache) for one cell.
func (h *harness) engineFor(cfg Config) *engine.Engine {
	meta := bigmeta.NewCache(h.w.clock)
	eng := engine.New(h.w.cat, h.w.auth, meta, h.w.log, h.w.clock, h.w.stores, engine.Options{
		UseMetadataCache: cfg.Cache,
		EnableDPP:        cfg.DPP,
		PruneGranularity: cfg.Granularity,
		EnableScanCache:  cfg.ScanCache,
		// GC-lean on: every differential query also cross-checks the
		// arena + late-materialization path against the oracle.
		GCLean: true,
	})
	eng.ManagedCred = h.w.cred
	eng.SetMutator(h.w.mgr)
	eng.Tracer = h.tracer
	return eng
}

// defaultCell is the fault-free all-accelerations cell used for
// bootstrap DML and minimization baselines.
func defaultCell() Config {
	return Config{Cache: true, DPP: true, Granularity: bigmeta.PruneFiles, ScanCache: true}
}

// install materializes the generated tables: BigLake tables become
// hive-partitioned colfmt files on the object store plus a catalog
// entry; the managed table is created empty and filled through
// chunked engine INSERTs (so the commit log holds several small
// files for compaction to coalesce). The oracle database is loaded
// with exactly the same rows.
func (h *harness) install(tables []*GenTable) error {
	for _, t := range tables {
		short := strings.TrimPrefix(t.Full, "ds.")
		if t.Managed {
			if err := h.w.cat.CreateTable(catalog.Table{
				Dataset: "ds", Name: short, Type: catalog.Managed, Schema: t.Schema,
				Cloud: "gcp", Bucket: diffBucket, Prefix: "blmt/ds/" + short + "/",
				Connection: diffConn,
			}); err != nil {
				return err
			}
			h.db.Add(&Table{Name: t.Full, Schema: t.Schema})
			eng := h.engineFor(defaultCell())
			const chunk = 12
			for start := 0; start < len(t.Rows); start += chunk {
				end := start + chunk
				if end > len(t.Rows) {
					end = len(t.Rows)
				}
				sql := insertSQL(t, t.Rows[start:end])
				qid := fmt.Sprintf("fz-install-%d-%d-%d", h.seed, h.trial, start)
				if _, err := eng.Query(engine.NewContext(diffAdmin, qid), sql); err != nil {
					return fmt.Errorf("install %s: %w", t.Full, err)
				}
				if _, err := h.db.ExecSQL(sql); err != nil {
					return fmt.Errorf("oracle install %s: %w", t.Full, err)
				}
			}
			continue
		}
		// BigLake: group rows by partition value (first-encounter
		// order) and write each partition as one or more files.
		pi := t.Schema.Index(t.PartitionCol)
		var parts []string
		byPart := map[string][][]vector.Value{}
		for _, row := range t.Rows {
			pv := row[pi].S
			if _, ok := byPart[pv]; !ok {
				parts = append(parts, pv)
			}
			byPart[pv] = append(byPart[pv], row)
		}
		for _, pv := range parts {
			rows := byPart[pv]
			const perFile = 18
			file := 0
			for start := 0; start < len(rows); start += perFile {
				end := start + perFile
				if end > len(rows) {
					end = len(rows)
				}
				bl := vector.NewBuilder(t.Schema)
				for _, row := range rows[start:end] {
					bl.Append(row...)
				}
				data, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
				if err != nil {
					return err
				}
				key := fmt.Sprintf("%s/%s=%s/part-%03d.blk", short, t.PartitionCol, pv, file)
				if _, err := h.w.store.Put(h.w.cred, diffBucket, key, data, "application/x-blk"); err != nil {
					return err
				}
				file++
			}
		}
		if err := h.w.cat.CreateTable(catalog.Table{
			Dataset: "ds", Name: short, Type: catalog.BigLake, Schema: t.Schema,
			Cloud: "gcp", Bucket: diffBucket, Prefix: short + "/", Connection: diffConn,
			PartitionColumn: t.PartitionCol, MetadataCaching: true,
		}); err != nil {
			return err
		}
		ot := &Table{Name: t.Full, Schema: t.Schema}
		for _, row := range t.Rows {
			ot.Rows = append(ot.Rows, append([]vector.Value(nil), row...))
		}
		h.db.Add(ot)
	}
	return nil
}

// insertSQL renders rows as one INSERT statement.
func insertSQL(t *GenTable, rows [][]vector.Value) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + t.Full + " VALUES ")
	for r, row := range rows {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for c, v := range row {
			if c > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(renderValue(v))
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// --- result comparison ---

// renderCell gives one value a type-tagged textual form so INT64 5,
// FLOAT 5.0, and STRING '5' never collide.
func renderCell(v vector.Value) string {
	if v.Type == vector.Invalid {
		return "NULL"
	}
	return fmt.Sprintf("%d:%s", v.Type, v.String())
}

func renderRow(row []vector.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = renderCell(v)
	}
	return strings.Join(parts, "|")
}

// diffResults compares engine output against the oracle answer and
// returns a human-readable description of the first difference, or
// "" when they agree.
func diffResults(got, want *Resultset, ordered bool) string {
	if len(got.Names) != len(want.Names) {
		return fmt.Sprintf("column count: engine %d vs oracle %d (%v vs %v)",
			len(got.Names), len(want.Names), got.Names, want.Names)
	}
	for i := range got.Names {
		if got.Names[i] != want.Names[i] {
			return fmt.Sprintf("column %d name: engine %q vs oracle %q", i, got.Names[i], want.Names[i])
		}
		if got.Types[i] != want.Types[i] {
			return fmt.Sprintf("column %q type: engine %v vs oracle %v", got.Names[i], got.Types[i], want.Types[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("row count: engine %d vs oracle %d", len(got.Rows), len(want.Rows))
	}
	g := make([]string, len(got.Rows))
	w := make([]string, len(want.Rows))
	for i := range got.Rows {
		g[i] = renderRow(got.Rows[i])
		w[i] = renderRow(want.Rows[i])
	}
	mode := "ordered"
	if !ordered {
		mode = "multiset"
		sort.Strings(g)
		sort.Strings(w)
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("first divergent row (%s, index %d):\n    engine: %s\n    oracle: %s", mode, i, g[i], w[i])
		}
	}
	return ""
}

// engRun executes one statement on the engine and converts the batch.
func (h *harness) engRun(eng *engine.Engine, qid, sql string) (*Resultset, error) {
	res, err := eng.Query(engine.NewContext(diffAdmin, qid), sql)
	if err != nil {
		return nil, err
	}
	return FromBatch(res.Batch), nil
}

// faultProfile derives a deterministic chaos profile for one cell.
func (h *harness) faultProfile(phase string, cell int) objstore.FaultProfile {
	seed := h.seed*1315423911 + uint64(cell)<<20 + uint64(len(phase))<<8 + uint64(h.trial)
	return objstore.FaultProfile{Seed: seed, Rate: 0.025, StreakLen: 2}
}

// runMatrix executes every query in every matrix cell against the
// current world state and compares against the oracle.
func (h *harness) runMatrix(phase string, queries []GenQuery) *Divergence {
	type oresult struct {
		rs  *Resultset
		err error
	}
	oras := make([]oresult, len(queries))
	for i, q := range queries {
		rs, err := h.db.ExecSQL(q.SQL)
		oras[i] = oresult{rs, err}
	}
	defer h.w.store.ClearFaults()
	for ci, cfg := range Matrix() {
		if cfg.Faults {
			h.w.store.InjectFaults(h.faultProfile(phase, ci))
		} else {
			h.w.store.ClearFaults()
		}
		eng := h.engineFor(cfg)
		for qi, q := range queries {
			qid := fmt.Sprintf("fz-%d-%d-%s-%d-%d", h.seed, h.trial, phase, ci, qi)
			got, err := h.engRun(eng, qid, q.SQL)
			h.rep.Executions++
			switch {
			case err != nil && oras[qi].err != nil:
				// Consistent rejection: both sides call the statement
				// invalid. Message equality is not required.
			case err != nil:
				if cfg.Faults {
					h.rep.FaultErrors++
					continue
				}
				return h.diverge(phase, cfg, q, "engine error: "+err.Error()+" (oracle succeeded)")
			case oras[qi].err != nil:
				return h.diverge(phase, cfg, q, "oracle error: "+oras[qi].err.Error()+" (engine succeeded)")
			default:
				if d := diffResults(got, oras[qi].rs, q.Ordered); d != "" {
					return h.diverge(phase, cfg, q, d)
				}
			}
			if h.serve {
				sgot, serr := h.serveRun(eng, qid, q.SQL)
				h.rep.Executions++
				switch {
				case serr != nil && err != nil:
					// Both paths reject the statement: consistent.
				case cfg.Faults && (serr != nil) != (err != nil):
					// The serve arm replays the query against a fault
					// injector that has advanced, so its failures (or
					// successes where the direct arm drew a fault) are
					// accepted the same way direct fault errors are.
					h.rep.FaultErrors++
				case serr != nil:
					return h.diverge(phase, cfg, q, "serve path error: "+serr.Error()+" (direct execution succeeded)")
				case err != nil:
					return h.diverge(phase, cfg, q, "serve path succeeded where direct execution was rejected")
				default:
					if d := diffResults(sgot, got, true); d != "" {
						return h.diverge(phase, cfg, q, "serve path diverged from direct execution: "+d)
					}
				}
			}
		}
	}
	return nil
}

func (h *harness) diverge(phase string, cfg Config, q GenQuery, detail string) *Divergence {
	h.w.store.ClearFaults()
	d := &Divergence{
		Seed: h.seed, Trial: h.trial, Phase: phase, Cell: cfg,
		SQL: q.SQL, MinSQL: q.SQL, Detail: detail,
	}
	d.MinSQL = h.minimize(cfg, q.SQL)
	return d
}

// runDML replays a generated DML sequence plus one CTAS through both
// executors, cross-checking the reported row counts (and for CTAS the
// produced rows). Runs fault-free: DML mutates shared state, so an
// injected fault would fork the two worlds rather than test them.
func (h *harness) runDML(gen *Gen, managed *GenTable, ctasName string) (*GenTable, *Divergence) {
	eng := h.engineFor(defaultCell())
	n := 5 + gen.intn(5)
	for i := 0; i < n; i++ {
		sql := gen.DML(managed)
		h.rep.Queries++
		qid := fmt.Sprintf("fz-dml-%d-%d-%d", h.seed, h.trial, i)
		got, gerr := h.engRun(eng, qid, sql)
		want, werr := h.db.ExecSQL(sql)
		h.rep.Executions++
		switch {
		case gerr != nil && werr != nil:
		case gerr != nil:
			return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
				SQL: sql, MinSQL: sql, Detail: "engine error: " + gerr.Error() + " (oracle succeeded)"}
		case werr != nil:
			return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
				SQL: sql, MinSQL: sql, Detail: "oracle error: " + werr.Error() + " (engine succeeded)"}
		default:
			if d := diffResults(got, want, true); d != "" {
				return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
					SQL: sql, MinSQL: sql, Detail: d}
			}
		}
	}
	ctasSQL, ctasT := gen.CTAS(managed, ctasName)
	h.rep.Queries++
	qid := fmt.Sprintf("fz-ctas-%d-%d", h.seed, h.trial)
	got, gerr := h.engRun(eng, qid, ctasSQL)
	want, werr := h.db.ExecSQL(ctasSQL)
	h.rep.Executions++
	switch {
	case gerr != nil && werr != nil:
		return nil, nil // consistently rejected; no CTAS table exists
	case gerr != nil:
		return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
			SQL: ctasSQL, MinSQL: ctasSQL, Detail: "engine error: " + gerr.Error() + " (oracle succeeded)"}
	case werr != nil:
		return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
			SQL: ctasSQL, MinSQL: ctasSQL, Detail: "oracle error: " + werr.Error() + " (engine succeeded)"}
	}
	if d := diffResults(got, want, false); d != "" {
		return nil, &Divergence{Seed: h.seed, Trial: h.trial, Phase: "dml", Cell: defaultCell(),
			SQL: ctasSQL, MinSQL: ctasSQL, Detail: d}
	}
	return ctasT, nil
}

// --- minimization ---

// minimize greedily shrinks a divergent SELECT while it still
// diverges. Candidates are compared as multisets with faults off; if
// the divergence only reproduces under ordering or faults, the
// original SQL is returned unchanged.
func (h *harness) minimize(cfg Config, sql string) string {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return sql
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return sql
	}
	cfg.Faults = false
	diverges := func(s *sqlparse.SelectStmt) bool {
		cand := RenderSelect(s)
		eng := h.engineFor(cfg)
		got, gerr := h.engRun(eng, "fz-min", cand)
		want, werr := h.db.ExecSQL(cand)
		if gerr != nil || werr != nil {
			return (gerr == nil) != (werr == nil)
		}
		return diffResults(got, want, false) != ""
	}
	if !diverges(sel) {
		return sql
	}
	attempts := 0
	for changed := true; changed && attempts < 60; {
		changed = false
		for _, cand := range shrinkSteps(sel) {
			attempts++
			if diverges(cand) {
				sel = cand
				changed = true
				break
			}
			if attempts >= 60 {
				break
			}
		}
	}
	return RenderSelect(sel)
}

func cloneSel(s *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	c := *s
	c.Items = append([]sqlparse.SelectItem(nil), s.Items...)
	c.Joins = append([]sqlparse.Join(nil), s.Joins...)
	c.GroupBy = append([]sqlparse.Expr(nil), s.GroupBy...)
	c.OrderBy = append([]sqlparse.OrderItem(nil), s.OrderBy...)
	return &c
}

// shrinkSteps proposes one-step-smaller variants of the statement.
func shrinkSteps(s *sqlparse.SelectStmt) []*sqlparse.SelectStmt {
	var out []*sqlparse.SelectStmt
	if s.Limit >= 0 {
		c := cloneSel(s)
		c.Limit = -1
		out = append(out, c)
	}
	if len(s.OrderBy) > 0 {
		c := cloneSel(s)
		c.OrderBy = nil
		out = append(out, c)
	}
	if s.Where != nil {
		c := cloneSel(s)
		c.Where = nil
		out = append(out, c)
		switch w := s.Where.(type) {
		case sqlparse.Binary:
			if w.Op == "AND" || w.Op == "OR" {
				cl := cloneSel(s)
				cl.Where = w.L
				cr := cloneSel(s)
				cr.Where = w.R
				out = append(out, cl, cr)
			}
		case sqlparse.Not:
			c := cloneSel(s)
			c.Where = w.E
			out = append(out, c)
		}
	}
	for i := range s.Joins {
		c := cloneSel(s)
		c.Joins = append(append([]sqlparse.Join(nil), s.Joins[:i]...), s.Joins[i+1:]...)
		out = append(out, c)
	}
	if len(s.Items) > 1 {
		for i := range s.Items {
			c := cloneSel(s)
			c.Items = append(append([]sqlparse.SelectItem(nil), s.Items[:i]...), s.Items[i+1:]...)
			out = append(out, c)
		}
	}
	for i := range s.GroupBy {
		c := cloneSel(s)
		c.GroupBy = append(append([]sqlparse.Expr(nil), s.GroupBy[:i]...), s.GroupBy[i+1:]...)
		out = append(out, c)
	}
	return out
}

// RenderSelect turns a parsed SELECT back into SQL. Expressions use
// their AST String() form, which the parser round-trips.
func RenderSelect(s *sqlparse.SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + renderTableRef(s.From))
		for _, j := range s.Joins {
			if j.Kind == sqlparse.LeftJoin {
				sb.WriteString(" LEFT JOIN ")
			} else {
				sb.WriteString(" JOIN ")
			}
			sb.WriteString(renderTableRef(j.Table) + " ON " + j.On.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

func renderTableRef(t *sqlparse.TableRef) string {
	if t.Subquery != nil {
		s := "(" + RenderSelect(t.Subquery) + ")"
		if t.Alias != "" {
			s += " AS " + t.Alias
		}
		return s
	}
	s := t.Name
	if t.Alias != "" {
		s += " AS " + t.Alias
	}
	return s
}

// --- top-level driver ---

// Run executes the full differential campaign: Trials independent
// worlds, each checked pre-DML, through a DML+CTAS sequence, and
// again post-compaction, across the whole matrix. It stops at the
// first divergence. The returned error reports infrastructure
// failures (install, compaction), not divergences.
func Run(opts Options) (Report, error) {
	if opts.Trials <= 0 {
		opts.Trials = 2
	}
	if opts.Queries <= 0 {
		opts.Queries = 70
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := Report{}
	for trial := 0; trial < opts.Trials; trial++ {
		seed := opts.Seed + uint64(trial)*0x9E3779B97F4A7C15
		rep.Trials++
		div, err := runTrial(&rep, seed, trial, opts, logf)
		if err != nil {
			return rep, fmt.Errorf("trial %d (seed %d): %w", trial, seed, err)
		}
		if div != nil {
			rep.Divergence = div
			return rep, nil
		}
		logf("trial %d (seed %d): ok — %d queries, %d executions, %d fault errors",
			trial, seed, rep.Queries, rep.Executions, rep.FaultErrors)
	}
	return rep, nil
}

func runTrial(rep *Report, seed uint64, trial int, opts Options, logf func(string, ...any)) (*Divergence, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	gen := NewGen(seed)
	tables := gen.Tables()
	h := &harness{
		w: w, db: NewDB(), seed: seed, trial: trial, rep: rep, logf: logf, tracer: opts.Tracer,
		serve: opts.Serve, sessions: map[*engine.Engine]*serve.Session{},
	}
	if err := h.install(tables); err != nil {
		return nil, err
	}

	pre := make([]GenQuery, opts.Queries)
	for i := range pre {
		pre[i] = gen.Query(tables)
	}
	rep.Queries += len(pre)
	if d := h.runMatrix("pre", pre); d != nil {
		return d, nil
	}

	var managed *GenTable
	for _, t := range tables {
		if t.Managed {
			managed = t
		}
	}
	ctasT, d := h.runDML(gen, managed, fmt.Sprintf("ds.c%d", trial))
	if d != nil {
		return d, nil
	}
	if _, err := w.mgr.Optimize(string(diffAdmin), managed.Full, ""); err != nil {
		return nil, fmt.Errorf("optimize %s: %w", managed.Full, err)
	}
	if ctasT != nil {
		if _, err := w.mgr.Optimize(string(diffAdmin), ctasT.Full, ""); err != nil {
			return nil, fmt.Errorf("optimize %s: %w", ctasT.Full, err)
		}
	}

	all := append([]*GenTable{}, tables...)
	if ctasT != nil {
		all = append(all, ctasT)
	}
	post := append([]GenQuery{}, pre...)
	extra := opts.Queries / 2
	for i := 0; i < extra; i++ {
		post = append(post, gen.Query(all))
	}
	rep.Queries += extra
	if d := h.runMatrix("post", post); d != nil {
		return d, nil
	}
	return nil, nil
}
