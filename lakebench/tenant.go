package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biglake/internal/engine"
	"biglake/internal/security"
	"biglake/internal/serve"
	"biglake/internal/storageapi"
	"biglake/internal/vector"
)

// tenantMix is an open loop over many tenant sessions at a fixed
// ladder of offered rates: point lookups, small GROUP BYs, writes
// (SQL INSERT and Write API batch commits) and star joins, with
// blmt.Optimize compacting the written table on a schedule.
type tenantMix struct {
	cfg    config
	t      tenantConfig
	seed   uint64
	data   *starData
	stars  []query // DPP-filtered E15 star joins
	groups []query
	// state of the world being measured
	srv      *serve.Server
	sessions []*serve.Session
	mu       sync.Mutex
	acked    []opsRow
}

type opsRow struct{ id, tenant, v int64 }

var opsSchema = vector.NewSchema(
	vector.Field{Name: "id", Type: vector.Int64},
	vector.Field{Name: "tenant", Type: vector.Int64},
	vector.Field{Name: "v", Type: vector.Int64},
)

const groupSQL = `SELECT grp, COUNT(*) AS n, SUM(k) AS s FROM bench.dim WHERE k >= %d AND k < %d GROUP BY grp ORDER BY grp`

func (tm *tenantMix) prepare(seed uint64) error {
	tm.seed = seed
	tm.data = genStar(seed, tm.t.starWorld)
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	tm.stars = starQueries(rng, tm.t.starWorld)[1:]
	for i := 0; i < tm.t.GroupVariants; i++ {
		lo := rng.Intn(tm.t.DimRows / 2)
		hi := lo + 1 + rng.Intn(tm.t.DimRows/2)
		tm.groups = append(tm.groups, query{kind: kindGroup, sql: fmt.Sprintf(groupSQL, lo, hi)})
	}
	db := tm.data.oracleDB()
	if err := reference(db, tm.stars); err != nil {
		return err
	}
	return reference(db, tm.groups)
}

func (tm *tenantMix) build() (*world, error) {
	w, err := newWorld(tm.cfg, tm.t.ScanCacheBytes)
	if err != nil {
		return nil, err
	}
	if err := tm.data.load(w); err != nil {
		return nil, err
	}
	lh := w.lh
	if err := lh.CreateManagedTable(lh.Admin, dataset, "ops", opsSchema, bucket); err != nil {
		return nil, err
	}
	for i := 0; i < tm.t.Tenants; i++ {
		for _, tbl := range []string{"fact", "dim", "ops"} {
			if err := lh.Auth.GrantTable(lh.Admin, dataset+"."+tbl, principal(i), security.RoleEditor); err != nil {
				return nil, err
			}
		}
	}
	tm.srv = serve.New(lh.Engine, lh.Txns, serve.Config{})
	tm.sessions = tm.sessions[:0]
	for i := 0; i < tm.t.Tenants; i++ {
		s, err := tm.srv.Open(principal(i), fmt.Sprintf("t%02d", i))
		if err != nil {
			return nil, err
		}
		tm.sessions = append(tm.sessions, s)
	}
	tm.acked = nil
	// Warm the caches through the serve path with every distinct read
	// shape the mix sends.
	ph := newPhase("warm-up", w, false, 0, 1)
	ph.begin()
	for _, q := range append(append([]query(nil), tm.stars...), tm.groups...) {
		tm.readStmt(ph, tm.sessions[0], q.kind, q.sql, q.want, 0, time.Now())
	}
	for i := 0; i < 16; i++ {
		sql, want := tm.data.pointSQL(i * len(tm.data.k) / 16)
		tm.readStmt(ph, tm.sessions[0], kindPoint, sql, want, 0, time.Now())
	}
	// Every dispatcher then runs a star join at once, so the engine's
	// arena pool already holds as many large arenas as the open loop
	// can have in flight.
	var wg sync.WaitGroup
	for d := 0; d < tm.dispatchers(); d++ {
		wg.Add(1)
		go func(sess *serve.Session) {
			defer wg.Done()
			q := tm.stars[0]
			tm.readStmt(ph, sess, q.kind, q.sql, q.want, 0, time.Now())
		}(tm.sessions[d%len(tm.sessions)])
	}
	wg.Wait()
	if ph.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", ph.firstFailure)
	}
	return w, nil
}

// dispatchers is how many goroutines send the open loop's statements:
// at most one per CPU.
func (tm *tenantMix) dispatchers() int { return min(runtime.NumCPU(), tm.cfg.MaxDispatchers) }

// arrival is one scheduled operation of the open loop.
type arrival struct {
	due    time.Duration
	rung   int
	kind   string // a statement kind, or "optimize"
	tenant int
	arg    int // row, variant, or pick among acknowledged rows
	rows   int // rows written
	v      int64
}

const kindOptimize = "optimize"

// spinWindow is how long before a due time a dispatcher stops sleeping
// and yields in a loop instead.
const spinWindow = 2 * time.Millisecond

// schedule lays out the ladder: each rate runs for an equal share of
// the phase at evenly spaced due times, with an Optimize pass every
// optimize_every_ms on the same timeline. Each rung's statements are a
// shuffled deck with the mix's exact shares, so every seed offers the
// same work.
func (tm *tenantMix) schedule(seconds float64) []arrival {
	rng := rand.New(rand.NewSource(int64(tm.seed) + 3))
	rungDur := seconds / float64(len(tm.t.RateLadder))
	var out []arrival
	for ri, rate := range tm.t.RateLadder {
		deck := tm.deck(int(float64(rate) * rungDur))
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for j, kind := range deck {
			a := arrival{
				due:    time.Duration((float64(ri)*rungDur + float64(j)/float64(rate)) * float64(time.Second)),
				rung:   ri,
				kind:   kind,
				tenant: rng.Intn(tm.t.Tenants),
				v:      int64(rng.Intn(1000)),
			}
			switch kind {
			case kindPoint, kindOpsPoint:
				a.arg = rng.Intn(len(tm.data.k))
			case kindGroup:
				a.arg = rng.Intn(len(tm.groups))
			case kindInsert, kindAppend:
				a.rows = 1 + rng.Intn(4)
			case kindDPP:
				a.arg = rng.Intn(len(tm.stars))
			}
			out = append(out, a)
		}
	}
	every := time.Duration(tm.t.OptimizeEveryMS) * time.Millisecond
	for d := every; d < time.Duration(seconds*float64(time.Second)); d += every {
		out = append(out, arrival{due: d, rung: min(int(d.Seconds()/rungDur), len(tm.t.RateLadder)-1), kind: kindOptimize})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// deck returns n statement kinds in the mix's proportions.
func (tm *tenantMix) deck(n int) []string {
	m := tm.t.Mix
	share := func(pct int) int { return int(float64(n)*float64(pct)/100 + 0.5) }
	groups, writes, stars := share(m.GroupBy), share(m.Write), share(m.Star)
	points := max(n-groups-writes-stars, 0) // the remainder, about m.Point percent
	ops := int(float64(points)*float64(tm.t.OpsPointSharePercent)/100 + 0.5)
	var d []string
	add := func(kind string, k int) {
		for i := 0; i < k; i++ {
			d = append(d, kind)
		}
	}
	add(kindPoint, points-ops)
	add(kindOpsPoint, ops)
	add(kindGroup, groups)
	add(kindInsert, writes/2)
	add(kindAppend, writes-writes/2)
	add(kindDPP, stars)
	return d
}

func (tm *tenantMix) measure(ph *phase) error {
	sched := tm.schedule(ph.seconds)
	nr := len(tm.t.RateLadder)
	late := make([][]time.Duration, nr)
	backlog := make([]int, nr)
	rungErr := make([]int64, nr)
	var next atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < tm.dispatchers(); d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				now := time.Since(ph.start)
				if now < a.due {
					// Sleep to just short of the due time, then yield
					// until it: a vCPU woken from idle starts the
					// statement late by a host-dependent amount.
					if d := a.due - now - spinWindow; d > 0 {
						time.Sleep(d)
					}
					for time.Since(ph.start) < a.due {
						runtime.Gosched()
					}
					ph.mu.Lock()
					late[a.rung] = append(late[a.rung], time.Since(ph.start)-a.due)
					ph.mu.Unlock()
				} else {
					// Arrivals already due but not yet taken by a dispatcher.
					due := sort.Search(len(sched), func(j int) bool { return sched[j].due > now })
					ph.mu.Lock()
					backlog[a.rung] = max(backlog[a.rung], due-(i+1))
					ph.mu.Unlock()
				}
				if !tm.do(ph, i, a) {
					ph.mu.Lock()
					rungErr[a.rung]++
					ph.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	tm.checkCount(ph)

	var allLate []time.Duration
	for ri, rate := range tm.t.RateLadder {
		var pts []time.Duration
		for _, s := range ph.samples {
			if s.rate == rate && isPoint(s.kind) {
				pts = append(pts, s.wall)
			}
		}
		pt, _ := tail(sortedMS(pts))
		lt := sortedMS(late[ri])
		allLate = append(allLate, late[ri]...)
		r := rungResult{
			rate: rate, pointTail: pt, pointN: len(pts), errors: rungErr[ri],
			backlogMax: backlog[ri], lateP99: quantile(lt, 0.99),
		}
		r.pass = len(pts) > 0 && r.pointTail <= tm.t.PointTailLimitMS && r.errors == 0 &&
			r.backlogMax <= tm.t.BacklogLimit && r.lateP99 <= tm.t.LateLimitMS
		ph.rungs = append(ph.rungs, r)
		ph.backlogMax = max(ph.backlogMax, backlog[ri])
	}
	ph.lateness = allLate
	return nil
}

// do runs one arrival on a dispatcher goroutine and reports whether it
// succeeded.
func (tm *tenantMix) do(ph *phase, idx int, a arrival) bool {
	sess := tm.sessions[a.tenant]
	due := ph.start.Add(a.due)
	switch a.kind {
	case kindOptimize:
		return tm.optimize(ph)
	case kindPoint:
		sql, want := tm.data.pointSQL(a.arg)
		return tm.readStmt(ph, sess, kindPoint, sql, want, tm.t.RateLadder[a.rung], due)
	case kindOpsPoint:
		tm.mu.Lock()
		n := len(tm.acked)
		var r opsRow
		if n > 0 {
			r = tm.acked[a.arg%n]
		}
		tm.mu.Unlock()
		if n == 0 {
			sql, want := tm.data.pointSQL(a.arg)
			return tm.readStmt(ph, sess, kindPoint, sql, want, tm.t.RateLadder[a.rung], due)
		}
		sql := fmt.Sprintf("SELECT id, tenant, v FROM bench.ops WHERE id = %d", r.id)
		want := []string{fmt.Sprintf("%d:%d|%d:%d|%d:%d", vector.Int64, r.id, vector.Int64, r.tenant, vector.Int64, r.v)}
		return tm.readStmt(ph, sess, kindOpsPoint, sql, want, tm.t.RateLadder[a.rung], due)
	case kindGroup:
		q := tm.groups[a.arg]
		return tm.readStmt(ph, sess, q.kind, q.sql, q.want, tm.t.RateLadder[a.rung], due)
	case kindDPP:
		q := tm.stars[a.arg]
		return tm.readStmt(ph, sess, q.kind, q.sql, q.want, tm.t.RateLadder[a.rung], due)
	case kindInsert, kindAppend:
		rows := make([]opsRow, a.rows)
		for j := range rows {
			rows[j] = opsRow{id: int64(1_000_000 + idx*8 + j), tenant: int64(a.tenant), v: a.v + int64(j)}
		}
		if a.kind == kindInsert {
			return tm.insert(ph, sess, rows, tm.t.RateLadder[a.rung], due)
		}
		return tm.appendRows(ph, sess, rows, tm.t.RateLadder[a.rung], due)
	}
	return false
}

// serveStmt drives one statement through the serve lifecycle:
// Parse → Prepare → Execute → Cursor (fetch all pages) → Close.
// The traced phase also asks engine.Parse first, to learn whether the
// statement cache holds the text; the serve parse that follows then
// hits.
func (tm *tenantMix) serveStmt(ph *phase, sess *serve.Session, req, execSpan, sql string) (*vector.Batch, engine.ExecStats, error) {
	sp := ph.spans.start("serve.parse", req, -1)
	if ph.traced {
		ep := ph.spans.start("engine.parse", req, sp)
		t0 := time.Now()
		_, hit, _ := ph.w.lh.Engine.Parse(sql)
		d := time.Since(t0)
		ph.spans.end(ep)
		ph.mu.Lock()
		ph.eng.parse += d
		ph.eng.parseN++
		if hit {
			ph.eng.hits++
		}
		ph.mu.Unlock()
	}
	p, err := sess.Parse(sql)
	ph.spans.end(sp)
	if err != nil {
		return nil, engine.ExecStats{}, err
	}
	sp = ph.spans.start("serve.prepare", req, -1)
	err = p.Prepare()
	ph.spans.end(sp)
	if err != nil {
		return nil, engine.ExecStats{}, err
	}
	sp = ph.spans.start(execSpan, req, -1)
	cur, err := p.Execute()
	ph.spans.end(sp)
	if err != nil {
		return nil, engine.ExecStats{}, err
	}
	sp = ph.spans.start("serve.fetch", req, -1)
	b, err := cur.All()
	ph.spans.end(sp)
	sp = ph.spans.start("serve.close", req, -1)
	cur.Close()
	ph.spans.end(sp)
	return b, cur.Stats(), err
}

// readStmt runs one SELECT and checks it; due is when it was due, so
// its latency counts any wait behind earlier statements, and rate is
// the offered rate it arrived at.
func (tm *tenantMix) readStmt(ph *phase, sess *serve.Session, kind, sql string, want []string, rate int, due time.Time) bool {
	b, st, err := tm.serveStmt(ph, sess, ph.req(), "serve.execute", sql)
	wall := time.Since(due)
	wrong := ""
	if err == nil {
		wrong = check(b, want)
		ph.addRows(b)
	}
	return ph.record(sample{kind: kind, wall: wall, sim: st.SimElapsed, rate: rate}, err, wrong)
}

func (tm *tenantMix) ack(rows []opsRow) {
	tm.mu.Lock()
	tm.acked = append(tm.acked, rows...)
	tm.mu.Unlock()
}

func (tm *tenantMix) insert(ph *phase, sess *serve.Session, rows []opsRow, rate int, due time.Time) bool {
	vals := make([]string, len(rows))
	for i, r := range rows {
		vals[i] = fmt.Sprintf("(%d, %d, %d)", r.id, r.tenant, r.v)
	}
	// A DML result carries no SimElapsed, so the commit's simulated time
	// is read off the shared clock (and so includes whatever a
	// concurrent statement charged meanwhile).
	sim0 := ph.w.lh.Clock.Now()
	_, _, err := tm.serveStmt(ph, sess, ph.req(), "blmt.insert", "INSERT INTO bench.ops VALUES "+strings.Join(vals, ", "))
	sim := ph.w.lh.Clock.Now() - sim0
	if err == nil {
		tm.ack(rows)
	}
	return ph.record(sample{kind: kindInsert, wall: time.Since(due), sim: sim, rate: rate}, err, "")
}

// appendRows writes through the Write API: a pending stream, one
// AppendRows, FinalizeStream and BatchCommitStreams.
func (tm *tenantMix) appendRows(ph *phase, sess *serve.Session, rows []opsRow, rate int, due time.Time) bool {
	srv := ph.w.lh.StorageAPI
	req := ph.req()
	cols := make([][]int64, 3)
	for _, r := range rows {
		cols[0] = append(cols[0], r.id)
		cols[1] = append(cols[1], r.tenant)
		cols[2] = append(cols[2], r.v)
	}
	batch := vector.MustBatch(opsSchema, []*vector.Column{
		vector.NewInt64Column(cols[0]), vector.NewInt64Column(cols[1]), vector.NewInt64Column(cols[2]),
	})
	sim0 := ph.w.lh.Clock.Now()
	err := func() error {
		sp := ph.spans.start("storageapi.create_write_stream", req, -1)
		id, err := srv.CreateWriteStream(string(sess.Principal), dataset+".ops", storageapi.PendingMode)
		ph.spans.end(sp)
		if err != nil {
			return err
		}
		sp = ph.spans.start("storageapi.append_rows", req, -1)
		_, err = srv.AppendRows(id, 0, batch)
		ph.spans.end(sp)
		if err != nil {
			return err
		}
		sp = ph.spans.start("storageapi.finalize_stream", req, -1)
		_, err = srv.FinalizeStream(id)
		ph.spans.end(sp)
		if err != nil {
			return err
		}
		sp = ph.spans.start("storageapi.batch_commit", req, -1)
		err = srv.BatchCommitStreams([]string{id})
		ph.spans.end(sp)
		return err
	}()
	if err == nil {
		tm.ack(rows)
	}
	return ph.record(sample{kind: kindAppend, wall: time.Since(due), sim: ph.w.lh.Clock.Now() - sim0, rate: rate}, err, "")
}

// optimize is the workload's background work: one blmt.Optimize pass
// over the written table. It is not a statement and has no latency
// sample.
func (tm *tenantMix) optimize(ph *phase) bool {
	lh := ph.w.lh
	sp := ph.spans.start("blmt.optimize", ph.req(), -1)
	t0 := time.Now()
	rep, err := lh.Manager.Optimize(string(lh.Admin), dataset+".ops", "")
	d := time.Since(t0)
	ph.spans.end(sp)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if err != nil {
		ph.attempted++
		ph.failed++
		if ph.firstFailure == "" {
			ph.firstFailure = "optimize: " + err.Error()
		}
		return false
	}
	ph.optimizes = append(ph.optimizes, optimizeRun{wall: d, before: rep.FilesBefore, after: rep.FilesAfter})
	return true
}

// checkCount verifies that the written table holds exactly the
// acknowledged rows: every INSERT and committed Write API row.
func (tm *tenantMix) checkCount(ph *phase) {
	res, err := runQuery(ph.w, "SELECT COUNT(*) AS n FROM bench.ops")
	tm.mu.Lock()
	want := int64(len(tm.acked))
	tm.mu.Unlock()
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.sqlAttempts++
	switch {
	case err != nil:
		ph.failed++
		ph.firstFailure = "final COUNT(*): " + err.Error()
	case res.Batch.N != 1 || res.Batch.Cols[0].Value(0).I != want:
		ph.failed++
		ph.firstFailure = fmt.Sprintf("final COUNT(*) on bench.ops: %s, want %d acknowledged rows", check(res.Batch, nil), want)
	}
}
