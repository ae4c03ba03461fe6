package objstore

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"biglake/internal/sim"
)

// This file is the chaos-grade fault-injection harness for the object
// store. It generalizes the original FailNext one-shot counter into
// seeded, deterministic fault *profiles*: per-operation probabilistic
// transient errors, error streaks (a faulting replica keeps faulting
// for a few requests), injected tail-latency slowdowns charged through
// the sim cost model, and per-bucket targeting so cross-cloud (omni)
// chaos can differ per region.
//
// Determinism contract: whether a given call faults is a pure function
// of (profile seed, operation kind, bucket, key, per-key call index).
// It does NOT depend on goroutine interleaving, so a parallel scan
// injected with the same seed sees the same fault set on every run —
// the property the seeded chaos tests assert.

// Op identifies one object-store data-path operation kind.
type Op uint8

// Data-path operations faults can target.
const (
	OpGet Op = iota
	OpPut
	OpList
	OpHead
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpList:
		return "LIST"
	case OpHead:
		return "HEAD"
	case OpDelete:
		return "DELETE"
	}
	return "OP?"
}

// FaultProfile configures probabilistic fault injection for one Store.
// The zero value injects nothing.
type FaultProfile struct {
	// Seed makes the fault sequence reproducible. Two runs of the same
	// workload under the same seed inject the same faults.
	Seed uint64

	// Rate is the base probability in [0,1) that a data-path call
	// returns ErrTransient.
	Rate float64
	// PerOp overrides Rate for specific operations (e.g. LIST-heavy
	// throttling).
	PerOp map[Op]float64
	// PerBucket overrides the (possibly PerOp-overridden) rate for
	// specific buckets — the per-region targeting hook: omni injects a
	// different profile into each region's store, and within a store a
	// single hot bucket can be made flakier than the rest.
	PerBucket map[string]float64

	// StreakLen makes faults bursty: once a call on a key faults, the
	// next StreakLen-1 calls on that same key also fault. 0 or 1 means
	// independent faults.
	StreakLen int

	// SlowdownRate is the probability in [0,1) that a call is charged
	// Slowdown of extra simulated latency (a storage tail event) —
	// charged through the operation's sim.Charger like any other
	// remote cost, so hedged reads can race it.
	SlowdownRate float64
	Slowdown     time.Duration

	// CorruptRate is the probability in [0,1) that a GET response body
	// is *silently* corrupted: no error is returned, the bytes are just
	// wrong. Three kinds are chosen deterministically per event — a
	// single flipped bit, a truncated body, or stale-object substitution
	// (the previous generation's bytes served with the previous
	// generation's metadata). Unlike Rate faults these are invisible to
	// the retry layer; only end-to-end checksums and generation pinning
	// catch them.
	CorruptRate float64
	// PerBucketCorrupt overrides CorruptRate for specific buckets.
	PerBucketCorrupt map[string]float64
}

func (p FaultProfile) rateFor(op Op, bucket string) float64 {
	r := p.Rate
	if v, ok := p.PerOp[op]; ok {
		r = v
	}
	if v, ok := p.PerBucket[bucket]; ok {
		r = v
	}
	return r
}

func (p FaultProfile) corruptRateFor(bucket string) float64 {
	r := p.CorruptRate
	if v, ok := p.PerBucketCorrupt[bucket]; ok {
		r = v
	}
	return r
}

// FaultRecord is one injected event, for reproducible failure logs.
type FaultRecord struct {
	Op     Op
	Bucket string
	Key    string
	Call   uint64 // per-(op,bucket,key) call index, 0-based
	Kind   string // "fault" or "slowdown"
}

func (r FaultRecord) String() string {
	return fmt.Sprintf("%s %s %s/%s #%d", r.Kind, r.Op, r.Bucket, r.Key, r.Call)
}

// injector holds the mutable state behind a FaultProfile. Injected
// events are published to the store registry's "objstore.faults" event
// stream (see Registry.Events), which snapshots in canonical sorted
// order — the same determinism contract the old FaultLog accessor
// provided.
type injector struct {
	prof     FaultProfile
	mu       sync.Mutex
	counts   map[string]uint64 // per (op,bucket,key) call counter
	streaks  map[string]int    // forced faults remaining per stream
	corrupts map[string]uint64 // per (op,bucket,key) corruption call counter
}

// splitmix64 finalizer: turns a structured input into uniform bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func hash64(s string) uint64 {
	// FNV-1a.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// roll returns a uniform float in [0,1) that is a pure function of its
// inputs; stream separates the fault and slowdown decision spaces.
func roll(seed uint64, streamKey string, call, stream uint64) float64 {
	x := mix64(seed ^ hash64(streamKey) + call*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03)
	return float64(x>>11) / float64(1<<53)
}

// decide consumes one call against the profile, returning an injected
// error (or nil) and recording slowdown charges on ch.
func (in *injector) decide(op Op, bucket, key string, ch sim.Charger, s *Store) error {
	in.mu.Lock()
	streamKey := op.String() + "|" + bucket + "|" + key
	call := in.counts[streamKey]
	in.counts[streamKey]++

	if in.streaks[streamKey] > 0 {
		in.streaks[streamKey]--
		in.mu.Unlock()
		s.recordFault(FaultRecord{Op: op, Bucket: bucket, Key: key, Call: call, Kind: "fault"})
		return fmt.Errorf("%w: injected %s %s/%s call %d (streak)", ErrTransient, op, bucket, key, call)
	}
	if r := in.prof.rateFor(op, bucket); r > 0 && roll(in.prof.Seed, streamKey, call, 0) < r {
		if in.prof.StreakLen > 1 {
			in.streaks[streamKey] = in.prof.StreakLen - 1
		}
		in.mu.Unlock()
		s.recordFault(FaultRecord{Op: op, Bucket: bucket, Key: key, Call: call, Kind: "fault"})
		return fmt.Errorf("%w: injected %s %s/%s call %d", ErrTransient, op, bucket, key, call)
	}
	var slow time.Duration
	if in.prof.SlowdownRate > 0 && roll(in.prof.Seed, streamKey, call, 1) < in.prof.SlowdownRate {
		slow = in.prof.Slowdown
	}
	in.mu.Unlock()
	if slow > 0 {
		s.recordFault(FaultRecord{Op: op, Bucket: bucket, Key: key, Call: call, Kind: "slowdown"})
		ch.Charge(slow)
	}
	return nil
}

// corruption is one decided silent-corruption event: which kind to
// apply and a uniform position in [0,1) locating the damage.
type corruption struct {
	kind string  // "bitflip", "truncate", or "stale"
	pos  float64 // uniform [0,1): bit position or truncation point
	call uint64
}

// corruptDecide consumes one GET against the corruption stream and
// returns the corruption to apply, if any. Corruption uses its own
// per-key call counter and roll streams (2 = decision, 3 = kind,
// 4 = position) so enabling it never perturbs the fault/slowdown
// sequences of an existing seed.
func (in *injector) corruptDecide(op Op, bucket, key string) (corruption, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.prof.corruptRateFor(bucket)
	if r <= 0 {
		return corruption{}, false
	}
	streamKey := op.String() + "|" + bucket + "|" + key
	call := in.corrupts[streamKey]
	in.corrupts[streamKey]++
	if roll(in.prof.Seed, streamKey, call, 2) >= r {
		return corruption{}, false
	}
	c := corruption{pos: roll(in.prof.Seed, streamKey, call, 4), call: call}
	switch k := roll(in.prof.Seed, streamKey, call, 3); {
	case k < 1.0/3:
		c.kind = "bitflip"
	case k < 2.0/3:
		c.kind = "truncate"
	default:
		c.kind = "stale"
	}
	return c, true
}

// recordFault publishes one injected event: its registry counter and
// the "objstore.faults" event stream. Corruption events additionally
// land in per-kind "integrity.injected.<kind>" counters so tests can
// diff harness-injected vs detected counts.
func (s *Store) recordFault(rec FaultRecord) {
	oc := s.counters()
	switch {
	case rec.Kind == "slowdown":
		oc.slowdowns.Add(1)
	case strings.HasPrefix(rec.Kind, "corrupt:"):
		oc.corruptions.Add(1)
		s.Obs().Counter("integrity.injected." + strings.TrimPrefix(rec.Kind, "corrupt:")).Add(1)
	default:
		oc.faults.Add(1)
	}
	s.Obs().Event("objstore.faults", rec.String())
}

// InjectFaults installs a fault profile on the store, replacing any
// previous one. The one-shot FailNext counter is independent and fires
// first.
func (s *Store) InjectFaults(p FaultProfile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = &injector{
		prof:     p,
		counts:   make(map[string]uint64),
		streaks:  make(map[string]int),
		corrupts: make(map[string]uint64),
	}
}

// ClearFaults removes any installed fault profile.
func (s *Store) ClearFaults() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = nil
}

// fault runs the injection pipeline for one data-path call: the legacy
// FailNext one-shot counter first, then the installed profile.
func (s *Store) fault(op Op, bucket, key string, ch sim.Charger) error {
	s.mu.Lock()
	if s.failures > 0 {
		s.failures--
		s.mu.Unlock()
		s.counters().faults.Add(1)
		return fmt.Errorf("%w: injected %s %s/%s (FailNext)", ErrTransient, op, bucket, key)
	}
	if s.failMatchN > 0 && strings.Contains(key, s.failMatch) {
		s.failMatchN--
		s.mu.Unlock()
		s.counters().faults.Add(1)
		return fmt.Errorf("%w: injected %s %s/%s (FailNextMatching %q)", ErrTransient, op, bucket, key, s.failMatch)
	}
	in := s.inj
	s.mu.Unlock()
	if in == nil {
		return nil
	}
	return in.decide(op, bucket, key, ch, s)
}
