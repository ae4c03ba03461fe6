package objstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// chaosWorkload runs a fixed call pattern against a store and returns
// the canonically sorted fault event stream from the store registry.
func chaosWorkload(t *testing.T, st *Store, cred Credential) []string {
	t.Helper()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("w/k%02d", i)
		st.Put(cred, "b", key, []byte("payload"), "")
		for j := 0; j < 4; j++ {
			st.Get(cred, "b", key)
		}
		st.Head(cred, "b", key)
	}
	st.ListAll(cred, "b", "w/")
	return st.Obs().Events("objstore.faults")
}

func TestFaultInjectionDeterministicAcrossRuns(t *testing.T) {
	prof := FaultProfile{Seed: 42, Rate: 0.2, SlowdownRate: 0.1, Slowdown: 50 * time.Millisecond}
	var logs [2][]string
	for run := 0; run < 2; run++ {
		st, cred := newTestStore()
		st.InjectFaults(prof)
		logs[run] = chaosWorkload(t, st, cred)
	}
	if len(logs[0]) == 0 {
		t.Fatal("profile injected nothing; workload too small or rate broken")
	}
	if len(logs[0]) != len(logs[1]) {
		t.Fatalf("runs differ: %d vs %d events", len(logs[0]), len(logs[1]))
	}
	for i := range logs[0] {
		if logs[0][i] != logs[1][i] {
			t.Fatalf("event %d differs: %v vs %v", i, logs[0][i], logs[1][i])
		}
	}
	// A different seed produces a different fault set.
	st, cred := newTestStore()
	prof.Seed = 43
	st.InjectFaults(prof)
	other := chaosWorkload(t, st, cred)
	same := len(other) == len(logs[0])
	if same {
		for i := range other {
			if other[i] != logs[0][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault logs")
	}
}

func TestFaultInjectionPerOpRates(t *testing.T) {
	st, cred := newTestStore()
	st.Put(cred, "b", "k", []byte("v"), "")
	st.InjectFaults(FaultProfile{Seed: 1, PerOp: map[Op]float64{OpGet: 1.0}})
	if _, _, err := st.Get(cred, "b", "k"); !errors.Is(err, ErrTransient) {
		t.Fatalf("GET should always fault, got %v", err)
	}
	if _, err := st.Put(cred, "b", "k2", []byte("v"), ""); err != nil {
		t.Fatalf("PUT should never fault, got %v", err)
	}
	if _, err := st.Head(cred, "b", "k"); err != nil {
		t.Fatalf("HEAD should never fault, got %v", err)
	}
}

func TestFaultInjectionPerBucketTargeting(t *testing.T) {
	st, cred := newTestStore()
	if err := st.CreateBucket(cred, "flaky"); err != nil {
		t.Fatal(err)
	}
	st.Put(cred, "b", "k", []byte("v"), "")
	st.Put(cred, "flaky", "k", []byte("v"), "")
	st.InjectFaults(FaultProfile{Seed: 1, PerBucket: map[string]float64{"flaky": 1.0}})
	if _, _, err := st.Get(cred, "b", "k"); err != nil {
		t.Fatalf("healthy bucket faulted: %v", err)
	}
	if _, _, err := st.Get(cred, "flaky", "k"); !errors.Is(err, ErrTransient) {
		t.Fatalf("targeted bucket should fault, got %v", err)
	}
}

func TestFaultStreaksComeInRuns(t *testing.T) {
	const streak = 4
	st, cred := newTestStore()
	st.Put(cred, "b", "k", []byte("v"), "")
	st.InjectFaults(FaultProfile{Seed: 7, Rate: 0.05, StreakLen: streak})
	const calls = 200
	var faulted [calls]bool
	n := 0
	for i := 0; i < calls; i++ {
		_, _, err := st.Get(cred, "b", "k")
		faulted[i] = errors.Is(err, ErrTransient)
		if faulted[i] {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no faults at 5% over 200 calls")
	}
	// Every maximal run of faults is at least StreakLen long unless it
	// was truncated by the end of the call sequence.
	for i := 0; i < calls; {
		if !faulted[i] {
			i++
			continue
		}
		j := i
		for j < calls && faulted[j] {
			j++
		}
		if j-i < streak && j != calls {
			t.Fatalf("fault run [%d,%d) shorter than streak %d", i, j, streak)
		}
		i = j
	}
}

func TestSlowdownChargesSimulatedTime(t *testing.T) {
	const slow = 77 * time.Millisecond
	baseSt, baseCred := newTestStore()
	baseSt.Put(baseCred, "b", "k", []byte("v"), "")
	t0 := baseSt.Clock().Now()
	baseSt.Get(baseCred, "b", "k")
	baseCost := baseSt.Clock().Now() - t0

	st, cred := newTestStore()
	st.Put(cred, "b", "k", []byte("v"), "")
	st.InjectFaults(FaultProfile{Seed: 1, SlowdownRate: 1.0, Slowdown: slow})
	t0 = st.Clock().Now()
	if _, _, err := st.Get(cred, "b", "k"); err != nil {
		t.Fatal(err)
	}
	cost := st.Clock().Now() - t0
	if cost != baseCost+slow {
		t.Fatalf("slowdown GET cost %v, want %v + %v", cost, baseCost, slow)
	}
	if st.Obs().Get("objstore.slowdowns.injected") != 1 {
		t.Fatal("slowdown not in registry")
	}
	evs := st.Obs().Events("objstore.faults")
	if len(evs) != 1 || !strings.HasPrefix(evs[0], "slowdown") {
		t.Fatalf("fault events = %v", evs)
	}
}

func TestFailNextFiresBeforeProfile(t *testing.T) {
	st, cred := newTestStore()
	st.Put(cred, "b", "k", []byte("v"), "")
	st.InjectFaults(FaultProfile{Seed: 1}) // zero rates: profile never fires
	st.FailNext(1)
	if _, _, err := st.Get(cred, "b", "k"); !errors.Is(err, ErrTransient) {
		t.Fatalf("FailNext should fault, got %v", err)
	}
	if _, _, err := st.Get(cred, "b", "k"); err != nil {
		t.Fatalf("one-shot counter should be spent, got %v", err)
	}
	if st.Obs().Get("objstore.faults.injected") != 1 {
		t.Fatal("FailNext fault not in registry")
	}
	st.ClearFaults()
	if got := st.Obs().Events("objstore.faults"); got != nil {
		t.Fatalf("no profile events expected, got %v", got)
	}
}

// corruptWorkload overwrites every key once (so stale substitution has
// a previous generation to serve) and then issues a burst of GETs,
// returning (corruption events, non-corruption events) in canonical
// order.
func corruptWorkload(t *testing.T, st *Store, cred Credential) (corrupt, other []string) {
	t.Helper()
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("c/k%02d", i)
		st.Put(cred, "b", key, []byte("payload-v1-"+key), "")
		st.Put(cred, "b", key, []byte("payload-v2-"+key), "")
		for j := 0; j < 12; j++ {
			st.Get(cred, "b", key)
		}
	}
	for _, ev := range st.Obs().Events("objstore.faults") {
		if strings.HasPrefix(ev, "corrupt:") {
			corrupt = append(corrupt, ev)
		} else {
			other = append(other, ev)
		}
	}
	return corrupt, other
}

// TestCorruptionDeterministicAcrossRuns: the silent-corruption
// injector is a pure function of (seed, stream, call) — two identical
// runs produce identical corruption event logs, and at a healthy rate
// all three corruption kinds occur.
func TestCorruptionDeterministicAcrossRuns(t *testing.T) {
	prof := FaultProfile{Seed: 42, CorruptRate: 0.3}
	var logs [2][]string
	for run := 0; run < 2; run++ {
		st, cred := newTestStore()
		st.InjectFaults(prof)
		logs[run], _ = corruptWorkload(t, st, cred)
	}
	if len(logs[0]) == 0 {
		t.Fatal("corruption injector never fired")
	}
	if fmt.Sprint(logs[0]) != fmt.Sprint(logs[1]) {
		t.Fatalf("runs differ:\n%v\nvs\n%v", logs[0], logs[1])
	}
	kinds := map[string]int{}
	for _, ev := range logs[0] {
		kinds[strings.Fields(ev)[0]]++
	}
	for _, k := range []string{"corrupt:bitflip", "corrupt:truncate", "corrupt:stale"} {
		if kinds[k] == 0 {
			t.Fatalf("kind %s never injected (kinds=%v)", k, kinds)
		}
	}
}

// TestCorruptionCountersMatchEvents: every corrupt:<kind> event lands
// in the matching integrity.injected.<kind> registry counter.
func TestCorruptionCountersMatchEvents(t *testing.T) {
	st, cred := newTestStore()
	st.InjectFaults(FaultProfile{Seed: 42, CorruptRate: 0.3})
	events, _ := corruptWorkload(t, st, cred)
	kinds := map[string]int64{}
	for _, ev := range events {
		kinds[strings.TrimPrefix(strings.Fields(ev)[0], "corrupt:")]++
	}
	for k, n := range kinds {
		if got := st.Obs().Get("integrity.injected." + k); got != n {
			t.Fatalf("integrity.injected.%s = %d, events show %d", k, got, n)
		}
	}
	if got := st.Obs().Get("objstore.corruptions.injected"); got != int64(len(events)) {
		t.Fatalf("objstore.corruptions.injected = %d, want %d", got, len(events))
	}
}

// TestCorruptionDoesNotPerturbFaultStreams: enabling CorruptRate on an
// existing seed must not change which calls fault or slow down —
// corruption draws from its own roll streams and call counters.
func TestCorruptionDoesNotPerturbFaultStreams(t *testing.T) {
	base := FaultProfile{Seed: 42, Rate: 0.15, SlowdownRate: 0.1, Slowdown: 20 * time.Millisecond}
	st1, cred1 := newTestStore()
	st1.InjectFaults(base)
	_, plain := corruptWorkload(t, st1, cred1)

	withCorrupt := base
	withCorrupt.CorruptRate = 0.3
	st2, cred2 := newTestStore()
	st2.InjectFaults(withCorrupt)
	corrupt, faults := corruptWorkload(t, st2, cred2)

	if len(plain) == 0 || len(corrupt) == 0 {
		t.Fatalf("workload too small: %d faults, %d corruptions", len(plain), len(corrupt))
	}
	if fmt.Sprint(plain) != fmt.Sprint(faults) {
		t.Fatalf("fault/slowdown stream changed when corruption was enabled:\n%v\nvs\n%v", plain, faults)
	}
}

// TestCorruptionIsSilent: a corrupted GET returns no error — the bytes
// are just wrong (flipped, short, or stale) — which is exactly why the
// read path needs end-to-end checksums and generation pinning.
func TestCorruptionIsSilent(t *testing.T) {
	st, cred := newTestStore()
	orig := []byte("the-true-bytes-of-this-object!")
	st.Put(cred, "b", "k", []byte("the-previous-generation-bytes!"), "")
	info, err := st.Put(cred, "b", "k", orig, "")
	if err != nil {
		t.Fatal(err)
	}
	st.InjectFaults(FaultProfile{Seed: 3, CorruptRate: 1})
	damaged := 0
	for i := 0; i < 10; i++ {
		data, gi, err := st.Get(cred, "b", "k")
		if err != nil {
			t.Fatalf("silent corruption returned an error: %v", err)
		}
		if string(data) != string(orig) || gi.Generation != info.Generation {
			damaged++
		}
	}
	if damaged != 10 {
		t.Fatalf("CorruptRate=1 damaged %d of 10 GETs", damaged)
	}
	st.ClearFaults()
	if data, _, err := st.Get(cred, "b", "k"); err != nil || string(data) != string(orig) {
		t.Fatalf("stored copy was mutated by response corruption: %q %v", data, err)
	}
}
