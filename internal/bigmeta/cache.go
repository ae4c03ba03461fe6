// Package bigmeta implements the repository's version of Big Metadata
// (Edara & Pasumansky, VLDB'21), the scalable physical-metadata system
// BigLake reuses for two roles:
//
//   - the metadata cache of §3.3: a columnar-grained cache of file
//     names, partitioning information, sizes, row counts and per-file
//     column statistics, refreshed in the background with the table's
//     delegated connection, letting queries avoid object-store LIST
//     calls and footer peeks entirely while enabling partition and
//     file pruning; and
//
//   - the BLMT transaction log of §3.5: a stateful service that holds
//     the tail of each table's commit log in memory and periodically
//     converts it to columnar baselines, supporting commit rates far
//     beyond object-store-committed table formats, multi-table
//     transactions and a tamper-proof audit history.
package bigmeta

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Errors returned by bigmeta.
var (
	ErrNotCached  = errors.New("bigmeta: table not in metadata cache")
	ErrNoSnapshot = errors.New("bigmeta: no snapshot at requested version")
)

// FileEntry is the cached physical metadata for one object — the unit
// the §3.3 cache tracks, "at a finer granularity than systems like the
// Hive Metastore".
type FileEntry struct {
	Bucket      string
	Key         string
	Size        int64
	RowCount    int64
	Partition   map[string]string
	ColumnStats map[string]colfmt.ColumnStats
	ContentType string
	Created     time.Duration
	Updated     time.Duration
	Generation  int64
	Custom      map[string]string
}

// PartitionOf parses hive-style partition components out of an object
// key relative to a table prefix: "p/date=2024-01-01/f.blk" yields
// {"date": "2024-01-01"}.
func PartitionOf(prefix, key string) map[string]string {
	rel := strings.TrimPrefix(key, prefix)
	parts := strings.Split(rel, "/")
	var out map[string]string
	for _, p := range parts[:max(0, len(parts)-1)] {
		if i := strings.IndexByte(p, '='); i > 0 {
			if out == nil {
				out = make(map[string]string)
			}
			out[p[:i]] = p[i+1:]
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RefreshWorkers is the parallelism of the background refresh
// pipeline that collects footer statistics.
const RefreshWorkers = 16

// Cache is the metadata cache for BigLake and Object tables.
type Cache struct {
	clock *sim.Clock
	// obs receives "bigmeta.cache_refreshes" and, through Res, the
	// refresh retries: a private registry until UseObs installs a
	// shared one.
	obs *obs.Registry

	// Res is the retry policy for the store operations a refresh
	// issues; a refresh that hits a transient LIST/GET fault retries
	// rather than leaving the cache unbuilt. Nil means no retries.
	Res *resilience.Policy

	mu        sync.RWMutex
	entries   map[string][]FileEntry
	refreshed map[string]time.Duration
}

// NewCache returns an empty cache charging background work to clock.
func NewCache(clock *sim.Clock) *Cache {
	c := &Cache{
		clock:     clock,
		Res:       resilience.DefaultPolicy(),
		entries:   make(map[string][]FileEntry),
		refreshed: make(map[string]time.Duration),
	}
	c.UseObs(obs.NewRegistry())
	return c
}

// UseObs points the cache's counters, and its refresh retry metrics
// under "resilience.*", at a shared registry. Call during setup.
func (c *Cache) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	c.obs = r
	if c.Res != nil {
		c.Res.Meter = r.Prefixed("resilience.")
	}
}

// RefreshOptions configures one refresh pass.
type RefreshOptions struct {
	// WithFileStats reads each data file's footer to collect row
	// counts and column statistics (BigLake tables). Object tables
	// refresh with this disabled: object attributes suffice.
	WithFileStats bool
	// Background charges refresh latency to a side track rather than
	// the global clock's critical path, modelling asynchronous cache
	// maintenance. When false the caller waits for the refresh.
	Background bool
}

// Refresh (re)builds the cache for table from the object store using
// the table's delegated connection credential — the maintenance
// operation of §3.1 that must run outside any user query context.
func (c *Cache) Refresh(table string, store *objstore.Store, cred objstore.Credential, bucket, prefix string, opts RefreshOptions) (int, error) {
	// The listing itself is sequential pagination. In background mode
	// every charge lands on side tracks that are never joined, keeping
	// maintenance off the query critical path.
	var listCharger sim.Charger = c.clock
	if opts.Background {
		listCharger = c.clock.StartTrack()
	}
	// Each refresh gets its own retry budget, seeded by the table name
	// so fault sequences reproduce.
	bud := resilience.NewBudget(c.clock, refreshRetryBudget, resilience.Seed64(table))
	infos, err := resilience.ListAll(c.Res, listCharger, bud, store, cred, bucket, prefix)
	if err != nil {
		return 0, err
	}

	entries := make([]FileEntry, len(infos))
	var firstErr error
	var errMu sync.Mutex

	// Footer collection fans out over parallel tracks.
	var wg sync.WaitGroup
	sem := make(chan struct{}, RefreshWorkers)
	tracks := make([]*sim.Track, RefreshWorkers)
	for i := range tracks {
		tracks[i] = c.clock.StartTrack()
	}
	for i, info := range infos {
		entries[i] = FileEntry{
			Bucket:      bucket,
			Key:         info.Key,
			Size:        info.Size,
			Partition:   PartitionOf(prefix, info.Key),
			ContentType: info.ContentType,
			Created:     info.Created,
			Updated:     info.Updated,
			Generation:  info.Generation,
			Custom:      info.Custom,
		}
		if !opts.WithFileStats {
			continue
		}
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tr := tracks[i%RefreshWorkers]
			stats, rows, err := readFooterStats(c.Res, bud, store, cred, bucket, key, tr)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			entries[i].ColumnStats = stats
			entries[i].RowCount = rows
		}(i, info.Key)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if !opts.Background {
		for _, tr := range tracks {
			tr.Join()
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })

	c.mu.Lock()
	c.entries[table] = entries
	c.refreshed[table] = c.clock.Now()
	c.mu.Unlock()
	c.obs.Counter("bigmeta.cache_refreshes").Add(1)
	return len(entries), nil
}

// refreshRetryBudget bounds the retries one refresh pass may spend
// across its LIST pages and footer reads.
const refreshRetryBudget = 64

// readFooterStats performs the two ranged reads a real engine does:
// the trailer to learn the footer size, then the footer itself. Remote
// calls retry under the cache's policy; ranged reads are hedged.
func readFooterStats(res *resilience.Policy, bud *resilience.Budget, store *objstore.Store, cred objstore.Credential, bucket, key string, tr *sim.Track) (map[string]colfmt.ColumnStats, int64, error) {
	var info objstore.ObjectInfo
	if err := res.Do(tr, bud, "HEAD "+bucket+"/"+key, func() error {
		var e error
		info, e = store.HeadOn(tr, cred, bucket, key)
		return e
	}); err != nil {
		return nil, 0, err
	}
	var tail []byte
	if err := res.HedgedDo(tr, bud, "GET "+bucket+"/"+key, func(ch sim.Charger) error {
		d, _, e := store.GetRangeOn(ch, cred, bucket, key, max64(0, info.Size-64*1024), -1)
		if e != nil {
			return e
		}
		tail = d
		return nil
	}); err != nil {
		return nil, 0, err
	}
	footer, err := colfmt.ReadFooter(tail)
	if err != nil {
		// Footer larger than our 64KB guess: fall back to full read.
		var full []byte
		if err2 := res.HedgedDo(tr, bud, "GET "+bucket+"/"+key, func(ch sim.Charger) error {
			d, _, e := store.GetOn(ch, cred, bucket, key)
			if e != nil {
				return e
			}
			full = d
			return nil
		}); err2 != nil {
			return nil, 0, err2
		}
		footer, err = colfmt.ReadFooter(full)
		if err != nil {
			return nil, 0, fmt.Errorf("bigmeta: %s/%s: %w", bucket, key, err)
		}
	}
	stats := make(map[string]colfmt.ColumnStats)
	for _, f := range footer.Fields {
		if st, ok := footer.ColumnStatsFor(f.Name); ok {
			stats[f.Name] = st
		}
	}
	return stats, footer.Rows, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Files returns the cached entries for a table.
func (c *Cache) Files(table string) ([]FileEntry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	entries, ok := c.entries[table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotCached, table)
	}
	out := make([]FileEntry, len(entries))
	copy(out, entries)
	return out, nil
}

// RefreshedAt reports when the table's cache was last rebuilt.
func (c *Cache) RefreshedAt(table string) (time.Duration, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.refreshed[table]
	return ts, ok
}

// Invalidate drops a table's cached metadata.
func (c *Cache) Invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, table)
	delete(c.refreshed, table)
}

// PruneGranularity selects how much of the cached metadata pruning may
// use (ablation A1).
type PruneGranularity int

// Pruning granularities.
const (
	// PrunePartitionsOnly uses only hive partition values, like a
	// Hive-metastore-backed engine.
	PrunePartitionsOnly PruneGranularity = iota
	// PruneFiles additionally applies per-file column statistics —
	// the finer granularity Big Metadata tracks.
	PruneFiles
)

// Prune returns the cached files that could contain rows matching all
// predicates, using partition values and (at PruneFiles granularity)
// per-file column statistics. It never touches the object store.
func (c *Cache) Prune(table string, preds []colfmt.Predicate, g PruneGranularity) ([]FileEntry, error) {
	entries, err := c.Files(table)
	if err != nil {
		return nil, err
	}
	out := entries[:0]
	for _, e := range entries {
		if FileCanMatch(e, preds, g) {
			out = append(out, e)
		}
	}
	return out, nil
}

// FileCanMatch reports whether a file's metadata admits rows matching
// every predicate.
func FileCanMatch(e FileEntry, preds []colfmt.Predicate, g PruneGranularity) bool {
	for _, p := range preds {
		// Partition pruning: exact-typed comparison on the partition
		// value.
		if pv, ok := e.Partition[p.Column]; ok {
			v := parsePartitionValue(pv, p.Value.Type)
			if !v.IsNull() && !p.Op.Eval(v.Compare(p.Value)) {
				return false
			}
			continue
		}
		if g == PruneFiles && e.ColumnStats != nil {
			// statsCanSatisfy is a build-tag seam: the oraclebug tag
			// swaps in a deliberately wrong comparison so the
			// differential fuzzer can prove it catches pruning bugs.
			if st, ok := e.ColumnStats[p.Column]; ok && !statsCanSatisfy(p, st) {
				return false
			}
		}
	}
	return true
}

func parsePartitionValue(s string, t vector.Type) vector.Value {
	switch t {
	case vector.Int64, vector.Timestamp:
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
			return vector.NullValue
		}
		return vector.Value{Type: t, I: v}
	case vector.Float64:
		var v float64
		if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
			return vector.NullValue
		}
		return vector.FloatValue(v)
	case vector.Bool:
		return vector.BoolValue(s == "true")
	default:
		return vector.StringValue(s)
	}
}

// TableStats aggregates cached stats for planner use (§3.4: the Read
// API returns these to external engines).
type TableStats struct {
	Files       int64
	Rows        int64
	TotalBytes  int64
	ColumnStats map[string]colfmt.ColumnStats
}

// Stats merges all file entries into table-level statistics.
func (c *Cache) Stats(table string) (TableStats, error) {
	entries, err := c.Files(table)
	if err != nil {
		return TableStats{}, err
	}
	return MergeStats(entries), nil
}

// MergeStats folds file entries into table-level statistics.
func MergeStats(entries []FileEntry) TableStats {
	ts := TableStats{ColumnStats: make(map[string]colfmt.ColumnStats)}
	for _, e := range entries {
		ts.Files++
		ts.Rows += e.RowCount
		ts.TotalBytes += e.Size
		for col, st := range e.ColumnStats {
			cur, ok := ts.ColumnStats[col]
			if !ok {
				ts.ColumnStats[col] = st
				continue
			}
			if min := st.Min.ToValue(); !min.IsNull() && (cur.Min.ToValue().IsNull() || min.Compare(cur.Min.ToValue()) < 0) {
				cur.Min = st.Min
			}
			if max := st.Max.ToValue(); !max.IsNull() && (cur.Max.ToValue().IsNull() || max.Compare(cur.Max.ToValue()) > 0) {
				cur.Max = st.Max
			}
			cur.Nulls += st.Nulls
			cur.Distinct += st.Distinct
			ts.ColumnStats[col] = cur
		}
	}
	return ts
}
