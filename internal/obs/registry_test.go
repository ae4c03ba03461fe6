package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrentIncrements hammers one registry from many
// goroutines — counters, gauges, histograms, and event streams at once
// — and asserts the final snapshot is exact. Run under -race this is
// the registry's core safety claim.
func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hot := r.Counter("hot.count") // pre-resolved hot-path handle
			for i := 0; i < perWorker; i++ {
				hot.Add(1)
				r.Add("cold.count", 2) // name-lookup path
				r.Gauge("g").Set(int64(i))
				r.Histogram("h", []int64{10, 100, 1000}).Observe(int64(i % 2000))
				if i%500 == 0 {
					r.Event("evs", fmt.Sprintf("w%d-%d", w, i))
				}
			}
		}(w)
	}

	// Snapshots taken mid-flight must be internally consistent and
	// never panic; values only grow.
	var last int64
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if c := snap.Counters["hot.count"]; c < last {
			t.Fatalf("counter went backwards: %d -> %d", last, c)
		} else {
			last = c
		}
	}
	wg.Wait()

	snap := r.Snapshot()
	if got, want := snap.Counters["hot.count"], int64(workers*perWorker); got != want {
		t.Fatalf("hot.count = %d, want %d", got, want)
	}
	if got, want := snap.Counters["cold.count"], int64(2*workers*perWorker); got != want {
		t.Fatalf("cold.count = %d, want %d", got, want)
	}
	h := snap.Histograms["h"]
	if h.Count != int64(workers*perWorker) {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	if got, want := len(snap.Events["evs"]), workers*(perWorker/500); got != want {
		t.Fatalf("events = %d, want %d", got, want)
	}
	// Event streams snapshot in canonical sorted order.
	evs := snap.Events["evs"]
	for i := 1; i < len(evs); i++ {
		if evs[i] < evs[i-1] {
			t.Fatalf("events not sorted: %q after %q", evs[i], evs[i-1])
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Counter("x").Add(1)
	r.Gauge("g").Set(9)
	r.Histogram("h", []int64{1}).Observe(5)
	r.Event("s", "e")
	if got := r.Get("x"); got != 0 {
		t.Fatalf("nil registry Get = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot has counters: %v", snap.Counters)
	}
	r.Prefixed("p.").Add("x", 1) // must not panic
}

func TestPrefixed(t *testing.T) {
	a := NewRegistry()
	a.Prefixed("alpha.").Add("retries", 3)
	if got := a.Get("alpha.retries"); got != 3 {
		t.Fatalf("prefixed add = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["lat"]
	want := []int64{2, 2, 2} // <=10, <=100, overflow
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Sum != 1+10+11+100+101+5000 {
		t.Fatalf("sum = %d", hs.Sum)
	}
}
