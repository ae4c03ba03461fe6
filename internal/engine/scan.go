package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/integrity"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/sim"
	"biglake/internal/sqlparse"
	"biglake/internal/systables"
	"biglake/internal/vector"
)

// scanTable reads a catalog table in situ, applying pushdown
// predicates for pruning and governance before any row leaves the
// trust boundary. The returned batch carries the table's bare column
// names.
func (e *Engine) scanTable(ctx *QueryContext, name string, preds []colfmt.Predicate) (*vector.Batch, error) {
	if parent := ctx.Span; parent != nil {
		sp := parent.Child("scan " + name)
		ctx.Span = sp
		pre := ctx.Stats
		defer func() {
			sp.SetInt("files", ctx.Stats.FilesScanned-pre.FilesScanned)
			sp.SetInt("pruned", ctx.Stats.FilesPruned-pre.FilesPruned)
			sp.SetInt("bytes", ctx.Stats.BytesScanned-pre.BytesScanned)
			sp.SetInt("rows", ctx.Stats.RowsScanned-pre.RowsScanned)
			if d := ctx.Stats.CacheHits - pre.CacheHits; d > 0 {
				sp.SetInt("cache_hits", d)
			}
			if d := ctx.Stats.CacheMisses - pre.CacheMisses; d > 0 {
				sp.SetInt("cache_misses", d)
			}
			sp.End()
			ctx.Span = parent
		}()
	}
	// The "system" dataset is virtual: catalog resolution falls through
	// to the telemetry provider, which synthesizes a columnar batch
	// from live snapshots — no files, no scan cache, and no governance
	// (system telemetry is readable by any principal; see DESIGN.md
	// "Queryable telemetry & SLOs").
	if systables.Is(name) {
		return e.scanSystemTable(ctx, name, preds)
	}

	t, err := e.Catalog.Table(name)
	if err != nil {
		return nil, err
	}
	if err := e.Auth.CheckRead(ctx.Principal, name); err != nil {
		return nil, err
	}

	var batch *vector.Batch
	switch t.Type {
	case catalog.Object:
		batch, err = e.scanObjectTable(ctx, t)
	case catalog.Native, catalog.Managed:
		batch, err = e.scanManagedTable(ctx, t, preds)
	default: // External, BigLake
		batch, err = e.scanLakeTable(ctx, t, preds)
	}
	if err != nil {
		return nil, err
	}

	// Governance is applied inside the engine for every scan — the
	// same implementation the Read API uses (§3.2).
	return e.Auth.ApplyGovernance(ctx.Principal, name, batch)
}

// scanSystemTable synthesizes one system.* table from the telemetry
// provider. Pushdown predicates on columns the table actually has are
// applied here (the normal pruning contract); the rest fall through to
// the residual WHERE in execSelect.
func (e *Engine) scanSystemTable(ctx *QueryContext, name string, preds []colfmt.Predicate) (*vector.Batch, error) {
	b, err := e.Sys.Scan(name)
	if err != nil {
		return nil, err
	}
	applicable := preds[:0:0]
	for _, p := range preds {
		if b.Column(p.Column) != nil {
			applicable = append(applicable, p)
		}
	}
	if len(applicable) > 0 {
		mask, err := colfmt.EvalPredicatesWith(ctx.mem.Al, b, applicable)
		if err != nil {
			return nil, err
		}
		b, err = vector.FilterWith(ctx.mem, b, mask)
		if err != nil {
			return nil, err
		}
	}
	ctx.Stats.RowsScanned += int64(b.N)
	return b, nil
}

// scanLakeTable reads an External or BigLake table from object
// storage. With metadata caching the file set comes from Big Metadata
// (no LIST, no footer peeks); without it the engine pays the full
// object-store metadata cost on the query's critical path (§3.3).
func (e *Engine) scanLakeTable(ctx *QueryContext, t catalog.Table, preds []colfmt.Predicate) (*vector.Batch, error) {
	store, err := e.store(t.Cloud)
	if err != nil {
		return nil, err
	}
	cred, err := e.credForCtx(ctx, t)
	if err != nil {
		return nil, err
	}

	var files []bigmeta.FileEntry
	useCache := e.Opts.UseMetadataCache && t.MetadataCaching && t.Type == catalog.BigLake
	if useCache {
		refreshedAt, ok := e.Meta.RefreshedAt(t.FullName())
		stale := ok && t.MetadataStaleness > 0 && e.Clock.Now()-refreshedAt > t.MetadataStaleness
		if !ok || stale {
			// First touch or staleness-interval expiry: rebuild the
			// cache (normally a background maintenance task; §3.3).
			var msp *obs.Span
			if ctx.Span != nil {
				msp = ctx.Span.Child("meta.refresh")
			}
			_, err := e.Meta.Refresh(t.FullName(), store, cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{WithFileStats: true, Background: true})
			msp.End()
			if err != nil {
				return nil, err
			}
		}
		var psp *obs.Span
		if ctx.Span != nil {
			psp = ctx.Span.Child("meta.prune")
			psp.SetInt("granularity", int64(e.Opts.PruneGranularity))
		}
		all, err := e.Meta.Files(t.FullName())
		if err != nil {
			psp.End()
			return nil, err
		}
		files, err = e.Meta.Prune(t.FullName(), preds, e.Opts.PruneGranularity)
		if err != nil {
			psp.End()
			return nil, err
		}
		psp.SetInt("files_total", int64(len(all)))
		psp.SetInt("files_kept", int64(len(files)))
		psp.End()
		ctx.Stats.FilesPruned += int64(len(all) - len(files))
	} else {
		// Slow path: list the bucket, then peek at each file's footer
		// to decide skippability — all on the critical path.
		var lsp *obs.Span
		if ctx.Span != nil {
			lsp = ctx.Span.Child("list")
		}
		infos, err := resilience.ListAll(e.Res, e.Clock, ctx.Budget, store, cred, t.Bucket, t.Prefix)
		if lsp != nil {
			lsp.SetInt("objects", int64(len(infos)))
		}
		lsp.End()
		if err != nil {
			return nil, err
		}
		ctx.Stats.ListCalls++
		entries := make([]bigmeta.FileEntry, len(infos))
		tracks := startTracks(e.Clock, ScanWorkers)
		var wg sync.WaitGroup
		errs := make(chan error, len(infos))
		sem := make(chan struct{}, ScanWorkers)
		var footerPeeks int64
		for i, info := range infos {
			entries[i] = bigmeta.FileEntry{
				Bucket:     t.Bucket,
				Key:        info.Key,
				Size:       info.Size,
				Generation: info.Generation,
				Partition:  bigmeta.PartitionOf(t.Prefix, info.Key),
			}
			// Partition pruning needs no footer; only survivors get a
			// footer peek.
			if !bigmeta.FileCanMatch(entries[i], preds, bigmeta.PrunePartitionsOnly) {
				entries[i].Size = -1 // mark pruned
				continue
			}
			footerPeeks++
			wg.Add(1)
			go func(i int, key string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				tr := tracks[i%ScanWorkers]
				var fsp *obs.Span
				if ctx.Span != nil {
					fsp = ctx.Span.ChildAt(tr, "footer "+key)
					fsp.SetLane(i % ScanWorkers)
				}
				defer fsp.End()
				stats, rows, err := footerPeek(e.Res, ctx.Budget, store, cred, t.Bucket, key, tr)
				if err != nil {
					errs <- err
					return
				}
				entries[i].ColumnStats = stats
				entries[i].RowCount = rows
			}(i, info.Key)
		}
		wg.Wait()
		// Tracks fold into the global clock even when a worker failed,
		// so an error return cannot leak simulated-time tracks.
		joinTracks(tracks)
		// Only survivors of partition pruning got a footer peek.
		ctx.Stats.FooterReads += footerPeeks
		if err := drainErrs(errs); err != nil {
			return nil, err
		}
		for _, en := range entries {
			if en.Size < 0 {
				ctx.Stats.FilesPruned++
				continue
			}
			// Honor the configured granularity here too: the knob
			// must mean the same thing with and without the cache.
			if bigmeta.FileCanMatch(en, preds, e.Opts.PruneGranularity) {
				files = append(files, en)
			} else {
				ctx.Stats.FilesPruned++
			}
		}
	}
	return e.readFiles(ctx, store, cred, t, files, preds)
}

// footerPeek reads a file's footer statistics on the query path — the
// extra object reads §3.3 describes for engines without a metadata
// cache. Each remote call retries under the policy; the ranged reads
// are hedged against storage tail latency.
func footerPeek(res *resilience.Policy, bud *resilience.Budget, store *objstore.Store, cred objstore.Credential, bucket, key string, tr *sim.Track) (map[string]colfmt.ColumnStats, int64, error) {
	var info objstore.ObjectInfo
	if err := res.Do(tr, bud, "HEAD "+bucket+"/"+key, func() error {
		var e error
		info, e = store.HeadOn(tr, cred, bucket, key)
		return e
	}); err != nil {
		return nil, 0, err
	}
	off := info.Size - 64*1024
	if off < 0 {
		off = 0
	}
	var tail []byte
	if err := res.HedgedDo(tr, bud, "GET "+bucket+"/"+key, func(ch sim.Charger) error {
		d, _, e := store.GetRangeOn(ch, cred, bucket, key, off, -1)
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
		if footer, err = colfmt.ReadFooter(full); err != nil {
			return nil, 0, err
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

// scanManagedTable reads a Native or BLMT table whose source of truth
// is the Big Metadata transaction log (§3.5): the file list comes from
// a log snapshot, never from object-store listing.
func (e *Engine) scanManagedTable(ctx *QueryContext, t catalog.Table, preds []colfmt.Predicate) (*vector.Batch, error) {
	store, err := e.store(t.Cloud)
	if err != nil {
		return nil, err
	}
	cred, err := e.credForCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	version := int64(-1)
	if ctx.Txn != nil {
		version = ctx.Txn.SnapshotVersion()
	}
	files, _, err := e.Log.Snapshot(t.FullName(), version)
	if err != nil {
		return nil, err
	}
	var overlay []*vector.Batch
	if ctx.Txn != nil {
		// Inside a transaction the scan sees the pinned snapshot minus
		// the files the session already rewrote, plus its buffered
		// batches. The surviving snapshot files are recorded *before*
		// predicate pruning: the read set must cover everything the
		// statement logically read, not just what its pushdown kept.
		removed, added := ctx.Txn.Overlay(t.FullName())
		if len(removed) > 0 {
			live := files[:0]
			for _, f := range files {
				if !removed[f.Key] {
					live = append(live, f)
				}
			}
			files = live
		}
		ctx.Txn.ObserveRead(t.FullName(), files)
		overlay = added
	}
	kept := files[:0]
	for _, f := range files {
		if bigmeta.FileCanMatch(f, preds, e.Opts.PruneGranularity) {
			kept = append(kept, f)
		} else {
			ctx.Stats.FilesPruned++
		}
	}
	out, err := e.readFiles(ctx, store, cred, t, kept, preds)
	if err != nil {
		return nil, err
	}
	// Buffered batches are appended unfiltered; the residual WHERE in
	// execSelect (and the where-func in DML rewrites) re-checks the
	// full predicate, so pushdown never has to understand the overlay.
	for _, b := range overlay {
		if b.N == 0 {
			continue
		}
		out, err = vector.AppendBatch(out, b)
		if err != nil {
			return nil, err
		}
		ctx.Stats.RowsScanned += int64(b.N)
	}
	return out, nil
}

// readFiles fetches and decodes the surviving files in parallel worker
// tracks, applying predicate filtering during the scan.
func (e *Engine) readFiles(ctx *QueryContext, store *objstore.Store, cred objstore.Credential, t catalog.Table, files []bigmeta.FileEntry, preds []colfmt.Predicate) (*vector.Batch, error) {
	// Column-level predicates only; partition predicates are already
	// consumed by pruning and reference no physical column.
	var filePreds []colfmt.Predicate
	for _, p := range preds {
		if t.Schema.Index(p.Column) >= 0 {
			filePreds = append(filePreds, p)
		}
	}

	results := make([]*vector.Batch, len(files))

	// Warm pass: probe the quarantine log and the generation-keyed scan
	// cache synchronously. An object generation pins immutable content,
	// so a known-generation hit skips the GET and the decode — and a hit
	// needs no worker either, just a predicate pass over the resident
	// batch. On the steady-state hot path (every surviving file already
	// decoded) the scan completes here with no goroutines, channels, or
	// clock tracks at all; only cold files fall through to the parallel
	// fetch below.
	var cold []int
	for i, f := range files {
		// Containment gate: a quarantined file fails fast with a typed
		// error naming table and file — or is skipped with a warning
		// under the explicit opt-in.
		if e.Log != nil {
			if m, qok := e.Log.IsQuarantined(t.FullName(), f.Key); qok {
				if e.Opts.SkipQuarantined {
					ctx.Stats.QuarantineSkips++
					e.Obs.Counter("integrity.quarantine_skips").Add(1)
					e.Obs.Event("integrity.warnings",
						fmt.Sprintf("skipping quarantined file %s/%s of table %s: %s", f.Bucket, f.Key, t.FullName(), m.Reason))
					continue
				}
				return nil, &integrity.Error{Source: "engine.quarantine", Table: t.FullName(),
					Bucket: f.Bucket, Key: f.Key, Detail: "file is quarantined: " + m.Reason}
			}
		}
		if e.scanCache != nil && f.Generation > 0 {
			cacheKey := scanCacheKey{Cloud: t.Cloud, Bucket: f.Bucket, Key: f.Key, Generation: f.Generation}
			if full, ok := e.scanCache.get(cacheKey); ok {
				var fsp *obs.Span
				if ctx.Span != nil {
					fsp = ctx.Span.Child("read " + f.Key)
					fsp.SetInt("bytes", f.Size)
					fsp.SetStr("cache", "hit")
				}
				b, err := finishDecoded(ctx.mem, full, filePreds, f, t)
				if err != nil {
					fsp.End()
					return nil, err
				}
				fsp.SetInt("rows", int64(b.N))
				fsp.End()
				results[i] = b
				ctx.Stats.CacheHits++
				continue
			}
		}
		cold = append(cold, i)
	}
	if len(cold) > 0 {
		if err := e.readColdFiles(ctx, store, cred, t, files, cold, results, filePreds); err != nil {
			return nil, err
		}
	}

	out, err := e.mergeScan(ctx, t, results)
	if err != nil {
		return nil, err
	}
	ctx.Stats.FilesScanned += int64(len(files))
	for _, f := range files {
		ctx.Stats.BytesScanned += f.Size
	}
	ctx.Stats.RowsScanned += int64(out.N)
	return out, nil
}

// readColdFiles fetches and decodes the files the warm pass could not
// serve from the scan cache, in parallel worker tracks. Worker k reads
// cold[k], cold[k+W], ... in order on tracks[k], and decoded files
// enter the scan cache in cold order once every worker is done, so the
// simulated timeline and the cache's eviction order follow the file
// list, never the goroutine scheduler.
func (e *Engine) readColdFiles(ctx *QueryContext, store *objstore.Store, cred objstore.Credential, t catalog.Table, files []bigmeta.FileEntry, cold []int, results []*vector.Batch, filePreds []colfmt.Predicate) error {
	workers := ScanWorkers
	if len(cold) < workers {
		workers = len(cold)
	}
	// fetch reads one file on track tr: a verified read, then on
	// detected corruption one re-fetch, then containment.
	fetch := func(tr *sim.Track, lane int, f bigmeta.FileEntry) (rd fileRead, err error) {
		var fsp *obs.Span
		if ctx.Span != nil {
			fsp = ctx.Span.ChildAt(tr, "read "+f.Key)
			fsp.SetLane(lane)
			fsp.SetInt("bytes", f.Size)
		}
		defer func() {
			if fsp != nil && rd.batch != nil {
				fsp.SetInt("rows", int64(rd.batch.N))
			}
			fsp.End()
		}()

		rd, err = e.readFileOnce(ctx, tr, fsp, store, cred, t, f, filePreds)
		if err != nil && errors.Is(err, integrity.ErrCorrupt) {
			// Detected corruption: evict every cached generation of
			// the object and re-fetch once from a fresh source. A
			// sick *response* heals here; a sick *stored copy* fails
			// again and is quarantined.
			e.recordDetection(err)
			if e.scanCache != nil {
				e.scanCache.evictObject(t.Cloud, f.Bucket, f.Key)
			}
			fsp.SetStr("integrity", "refetch")
			rd, err = e.readFileOnce(ctx, tr, fsp, store, cred, t, f, filePreds)
			switch {
			case err == nil:
				e.Obs.Counter("integrity.recovered.refetch").Add(1)
			case errors.Is(err, integrity.ErrCorrupt):
				e.recordDetection(err)
				if e.scanCache != nil {
					e.scanCache.evictObject(t.Cloud, f.Bucket, f.Key)
				}
				fsp.SetStr("integrity", "quarantined")
				skipped, ferr := e.containCorrupt(ctx, t, f, err)
				if skipped {
					e.Obs.Counter("integrity.quarantine_skips").Add(1)
					return fileRead{skipped: true}, nil
				}
				return fileRead{}, ferr
			}
		}
		if err != nil {
			return fileRead{}, err
		}
		return rd, nil
	}

	reads := make([]fileRead, len(cold))
	tracks := startTracks(e.Clock, workers)
	var wg sync.WaitGroup
	errs := make(chan error, len(cold))
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for w := k; w < len(cold); w += workers {
				rd, err := fetch(tracks[k], k, files[cold[w]])
				if err != nil {
					errs <- err
				}
				reads[w] = rd
			}
		}(k)
	}
	wg.Wait()
	// Join tracks before any error return so sim tracks never leak.
	joinTracks(tracks)
	for w, i := range cold {
		rd := reads[w]
		results[i] = rd.batch
		if rd.full != nil {
			e.scanCache.put(rd.key, rd.full)
		}
		if rd.hit {
			ctx.Stats.CacheHits++
		}
		if rd.miss {
			ctx.Stats.CacheMisses++
		}
		if rd.skipped {
			ctx.Stats.QuarantineSkips++
		}
	}
	return drainErrs(errs)
}

// mergeScan concatenates per-file results into the scan output. Under
// GC-lean the merge is a single sized pass drawing from the query
// arena (and keeps dictionary columns encoded); the legacy path keeps
// the original pairwise AppendBatch fold, so Options.GCLean gates the
// whole memory-discipline change and the perf harness can A/B the two
// within one binary.
func (e *Engine) mergeScan(ctx *QueryContext, t catalog.Table, results []*vector.Batch) (*vector.Batch, error) {
	if ctx.mem.Al != nil {
		out, err := vector.ConcatBatchesWith(ctx.mem, results)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = vector.EmptyBatch(t.Schema)
		}
		return out, nil
	}
	var out *vector.Batch
	var err error
	for _, b := range results {
		if b == nil {
			continue
		}
		out, err = vector.AppendBatch(out, b)
		if err != nil {
			return nil, err
		}
	}
	if out == nil {
		out = vector.EmptyBatch(t.Schema)
	}
	return out, nil
}

// decodeFile decodes complete file bytes through the vectorized
// reader. Hive-partitioned files do not store the partition column;
// the caller passes only the predicates the file can evaluate (the
// rest were consumed by pruning and are re-checked after
// partition-column injection), and this helper further drops any
// predicate the file's actual schema lacks.
func decodeFile(data []byte, filePreds []colfmt.Predicate) (*vector.Batch, error) {
	footer, err := colfmt.ReadFooter(data)
	if err != nil {
		return nil, err
	}
	fileSchema := footer.Schema()
	preds := filePreds[:0:0]
	for _, p := range filePreds {
		if fileSchema.Index(p.Column) >= 0 {
			preds = append(preds, p)
		}
	}
	r, err := colfmt.NewVectorizedReader(data, nil, preds)
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// finishDecoded turns a cached full (unfiltered) decode into the same
// batch the direct read path produces: predicate filtering followed by
// partition-column injection.
func finishDecoded(mem vector.Mem, full *vector.Batch, filePreds []colfmt.Predicate, f bigmeta.FileEntry, t catalog.Table) (*vector.Batch, error) {
	b := full
	preds := filePreds[:0:0]
	for _, p := range filePreds {
		if b.Schema.Index(p.Column) >= 0 {
			preds = append(preds, p)
		}
	}
	if len(preds) > 0 {
		mask, err := colfmt.EvalPredicatesWith(mem.Al, b, preds)
		if err != nil {
			return nil, err
		}
		b, err = vector.FilterWith(mem, b, mask)
		if err != nil {
			return nil, err
		}
	}
	return injectPartitionColumns(b, f.Partition, t)
}

// drainErrs closes the worker error channel and joins every error the
// pool reported — not just the first — so multi-file failures surface
// completely.
func drainErrs(errs chan error) error {
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// injectPartitionColumns adds hive partition values as columns when
// the table schema declares them but files do not store them.
func injectPartitionColumns(b *vector.Batch, partition map[string]string, t catalog.Table) (*vector.Batch, error) {
	if len(partition) == 0 {
		return b, nil
	}
	fields := append([]vector.Field(nil), b.Schema.Fields...)
	cols := append([]*vector.Column(nil), b.Cols...)
	keys := make([]string, 0, len(partition))
	for k := range partition {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if b.Schema.Index(k) >= 0 {
			continue // file stores the column already
		}
		idx := t.Schema.Index(k)
		if idx < 0 {
			continue // partition key not in declared schema
		}
		typ := t.Schema.Fields[idx].Type
		v := partitionValue(partition[k], typ)
		fields = append(fields, vector.Field{Name: k, Type: typ})
		cols = append(cols, constColumn(v, b.N))
	}
	return vector.NewBatch(vector.Schema{Fields: fields}, cols)
}

func partitionValue(s string, t vector.Type) vector.Value {
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

// scanObjectTable materializes an Object table: the metadata cache
// itself is the data source (§4.1) — each cached object becomes a row.
func (e *Engine) scanObjectTable(ctx *QueryContext, t catalog.Table) (*vector.Batch, error) {
	store, err := e.store(t.Cloud)
	if err != nil {
		return nil, err
	}
	cred, err := e.credForCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	var entries []bigmeta.FileEntry
	if e.Opts.UseMetadataCache && t.MetadataCaching {
		if _, ok := e.Meta.RefreshedAt(t.FullName()); !ok {
			if _, err := e.Meta.Refresh(t.FullName(), store, cred, t.Bucket, t.Prefix, bigmeta.RefreshOptions{Background: true}); err != nil {
				return nil, err
			}
		}
		entries, err = e.Meta.Files(t.FullName())
		if err != nil {
			return nil, err
		}
	} else {
		// Without the cache the engine lists the bucket per query —
		// the hours-long path for billions of objects (§4.1).
		infos, err := resilience.ListAll(e.Res, e.Clock, ctx.Budget, store, cred, t.Bucket, t.Prefix)
		if err != nil {
			return nil, err
		}
		ctx.Stats.ListCalls++
		for _, info := range infos {
			entries = append(entries, bigmeta.FileEntry{
				Bucket: t.Bucket, Key: info.Key, Size: info.Size,
				ContentType: info.ContentType, Created: info.Created,
				Updated: info.Updated, Generation: info.Generation,
			})
		}
	}
	bl := vector.NewBuilder(catalog.ObjectTableSchema())
	for _, en := range entries {
		bl.Append(
			vector.StringValue(fmt.Sprintf("%s://%s/%s", t.Cloud, en.Bucket, en.Key)),
			vector.IntValue(en.Size),
			vector.StringValue(en.ContentType),
			vector.TimestampValue(int64(en.Created)),
			vector.TimestampValue(int64(en.Updated)),
			vector.IntValue(en.Generation),
		)
	}
	ctx.Stats.RowsScanned += int64(bl.Len())
	return bl.Build(), nil
}

func startTracks(clock *sim.Clock, n int) []*sim.Track {
	tracks := make([]*sim.Track, n)
	for i := range tracks {
		tracks[i] = clock.StartTrack()
	}
	return tracks
}

func joinTracks(tracks []*sim.Track) {
	for _, tr := range tracks {
		tr.Join()
	}
}

// qualifyBatch prefixes every column with "qual." for multi-table
// resolution.
func qualifyBatch(b *vector.Batch, qual string) *vector.Batch {
	fields := make([]vector.Field, len(b.Schema.Fields))
	for i, f := range b.Schema.Fields {
		fields[i] = vector.Field{Name: qual + "." + f.Name, Type: f.Type}
	}
	return &vector.Batch{Schema: vector.Schema{Fields: fields}, Cols: b.Cols, N: b.N}
}

// pushdownPreds extracts `col op literal` conjuncts from a WHERE tree
// that reference the given table qualifier (or are unqualified when
// the query has a single table). It is a best-effort extraction: the
// full predicate is always re-checked after the scan.
func pushdownPreds(where sqlparse.Expr, qualifier string, single bool) []colfmt.Predicate {
	var out []colfmt.Predicate
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		bin, ok := e.(sqlparse.Binary)
		if !ok {
			return
		}
		if bin.Op == "AND" {
			walk(bin.L)
			walk(bin.R)
			return
		}
		op, ok := cmpOpMap[bin.Op]
		if !ok {
			return
		}
		ref, refOK := bin.L.(sqlparse.ColumnRef)
		lit, litOK := bin.R.(sqlparse.Literal)
		if !refOK || !litOK {
			// literal op column
			if ref2, ok2 := bin.R.(sqlparse.ColumnRef); ok2 {
				if lit2, ok3 := bin.L.(sqlparse.Literal); ok3 {
					ref, lit, op = ref2, lit2, flipOp(op)
					refOK, litOK = true, true
				}
			}
		}
		if !refOK || !litOK || lit.Value.IsNull() {
			return
		}
		if ref.Table != "" && ref.Table != qualifier {
			return
		}
		if ref.Table == "" && !single {
			return
		}
		out = append(out, colfmt.Predicate{Column: ref.Name, Op: op, Value: lit.Value})
	}
	if where != nil {
		walk(where)
	}
	return out
}
