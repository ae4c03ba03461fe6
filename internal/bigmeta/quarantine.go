package bigmeta

import (
	"fmt"
	"sort"
	"time"
)

// Quarantine: the containment half of the integrity pipeline. When the
// scan path detects corruption in a data file and a fresh re-fetch
// confirms it (the stored copy itself is damaged, not just one
// response), the file is quarantined *in the transaction log* — a
// sealed, journaled commit like any other metadata change, so the mark
// survives crashes, replicates through recovery, and leaves an audit
// trail of what rotted, when, and why. Quarantined files stay in every
// snapshot (time travel still names them); the scan path consults
// IsQuarantined and either fails with a typed error or, under an
// explicit opt-in, skips the file and warns. blmt.Repair lifts the
// mark with an Unquarantine entry in the same commit that swaps in the
// rewritten file.

// QuarantineMark records one quarantined data file.
type QuarantineMark struct {
	// Key is the object key of the quarantined data file.
	Key string `json:"key"`
	// Source is the verification site that detected the damage
	// ("colfmt.chunk", "colfmt.footer", "engine.stale", "scrub", ...).
	Source string `json:"source"`
	// Reason is the human-readable integrity error that triggered it.
	Reason string `json:"reason"`
	// Time is the simulated time of quarantine.
	Time time.Duration `json:"time"`
}

// applyQuarantineLocked folds one committed record's quarantine and
// unquarantine entries into the log's current-state map. Removing a
// file also clears its mark: a key that no longer exists has nothing
// left to quarantine. Caller holds l.mu.
func (l *Log) applyQuarantineLocked(rec CommitRecord) {
	for table, d := range rec.Deltas {
		if len(d.Quarantine) == 0 && len(d.Unquarantine) == 0 && len(d.Removed) == 0 {
			continue
		}
		marks := l.quarantined[table]
		for _, m := range d.Quarantine {
			if marks == nil {
				marks = make(map[string]QuarantineMark)
				if l.quarantined == nil {
					l.quarantined = make(map[string]map[string]QuarantineMark)
				}
				l.quarantined[table] = marks
			}
			if _, ok := marks[m.Key]; !ok {
				l.obs.Counter("bigmeta.meta_quarantines").Add(1)
			}
			marks[m.Key] = m
		}
		for _, k := range d.Unquarantine {
			if _, ok := marks[k]; ok {
				delete(marks, k)
				l.obs.Counter("bigmeta.meta_unquarantines").Add(1)
			}
		}
		for _, k := range d.Removed {
			delete(marks, k)
		}
	}
}

// IsQuarantined reports whether the table's file is currently
// quarantined, and returns its mark.
func (l *Log) IsQuarantined(table, key string) (QuarantineMark, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	m, ok := l.quarantined[table][key]
	return m, ok
}

// Quarantined returns the table's current quarantine marks, sorted by
// key. An empty slice means the table is healthy.
func (l *Log) Quarantined(table string) []QuarantineMark {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]QuarantineMark, 0, len(l.quarantined[table]))
	for _, m := range l.quarantined[table] {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// AllQuarantined returns the current quarantine marks for every table,
// keyed by table name with each table's marks sorted by key — the
// enumeration behind the system.quarantine virtual table. Tables with
// no live marks are absent.
func (l *Log) AllQuarantined() map[string][]QuarantineMark {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[string][]QuarantineMark, len(l.quarantined))
	for table, marks := range l.quarantined {
		if len(marks) == 0 {
			continue
		}
		list := make([]QuarantineMark, 0, len(marks))
		for _, m := range marks {
			list = append(list, m)
		}
		sort.Slice(list, func(a, b int) bool { return list[a].Key < list[b].Key })
		out[table] = list
	}
	return out
}

// QuarantineFile seals a quarantine mark for one file through the
// normal commit path (write-ahead journaled when a sink is attached).
// Re-quarantining an already-marked file is a no-op returning the
// current version, so concurrent scan workers that both detect the
// same rotten file don't pile up commits.
func (l *Log) QuarantineFile(principal, table string, mark QuarantineMark) (int64, error) {
	if mark.Key == "" {
		return 0, fmt.Errorf("bigmeta: quarantine with empty key")
	}
	if _, ok := l.IsQuarantined(table, mark.Key); ok {
		return l.Version(), nil
	}
	return l.Commit(principal, map[string]TableDelta{
		table: {Quarantine: []QuarantineMark{mark}},
	})
}
