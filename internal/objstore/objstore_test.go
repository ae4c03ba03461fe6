package objstore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"biglake/internal/sim"
)

func newTestStore() (*Store, Credential) {
	clock := sim.NewClock()
	st := New(sim.GCP, clock)
	admin := Credential{Principal: "admin@test"}
	if err := st.CreateBucket(admin, "b"); err != nil {
		panic(err)
	}
	return st, admin
}

func TestPutGetRoundTrip(t *testing.T) {
	st, admin := newTestStore()
	info, err := st.Put(admin, "b", "dir/a.txt", []byte("hello"), "text/plain")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 5 || info.Generation != 1 {
		t.Fatalf("info = %+v", info)
	}
	data, got, err := st.Get(admin, "b", "dir/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" || got.ContentType != "text/plain" {
		t.Fatalf("got %q %+v", data, got)
	}
}

func TestGetRange(t *testing.T) {
	st, admin := newTestStore()
	if _, err := st.Put(admin, "b", "k", []byte("0123456789"), ""); err != nil {
		t.Fatal(err)
	}
	data, _, err := st.GetRange(admin, "b", "k", 7, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "789" {
		t.Fatalf("tail range = %q", data)
	}
	data, _, _ = st.GetRange(admin, "b", "k", 2, 3)
	if string(data) != "234" {
		t.Fatalf("mid range = %q", data)
	}
	data, _, _ = st.GetRange(admin, "b", "k", 50, 3)
	if len(data) != 0 {
		t.Fatalf("past-end range = %q", data)
	}
}

func TestGetMissing(t *testing.T) {
	st, admin := newTestStore()
	if _, _, err := st.Get(admin, "b", "nope"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := st.Get(admin, "nobucket", "x"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerationIncrements(t *testing.T) {
	st, admin := newTestStore()
	for want := int64(1); want <= 3; want++ {
		info, err := st.Put(admin, "b", "k", []byte("v"), "")
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != want {
			t.Fatalf("gen = %d, want %d", info.Generation, want)
		}
	}
}

func TestConditionalPut(t *testing.T) {
	st, admin := newTestStore()
	// Must-not-exist succeeds on fresh key.
	info, err := st.PutIfGeneration(admin, "b", "log", []byte("v1"), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stale generation fails.
	if _, err := st.PutIfGeneration(admin, "b", "log", []byte("v2"), "", 0); !errors.Is(err, ErrPreconditionFail) {
		t.Fatalf("stale put err = %v", err)
	}
	// Matching generation succeeds.
	if _, err := st.PutIfGeneration(admin, "b", "log", []byte("v2"), "", info.Generation); err != nil {
		t.Fatal(err)
	}
	data, _, _ := st.Get(admin, "b", "log")
	if string(data) != "v2" {
		t.Fatalf("data = %q", data)
	}
}

func TestMutationRateBound(t *testing.T) {
	// §3.5: conditional overwrites of one object are rate-limited. 10
	// successive commits must advance simulated time by at least
	// 9 * MutationInterval.
	st, admin := newTestStore()
	info, err := st.PutIfGeneration(admin, "b", "log", []byte("v"), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	start := st.Clock().Now()
	gen := info.Generation
	for i := 0; i < 10; i++ {
		info, err = st.PutIfGeneration(admin, "b", "log", []byte(fmt.Sprintf("v%d", i)), "", gen)
		if err != nil {
			t.Fatal(err)
		}
		gen = info.Generation
	}
	elapsed := st.Clock().Now() - start
	if min := 9 * sim.GCP.MutationInterval; elapsed < min {
		t.Fatalf("10 mutations took %v simulated, want >= %v", elapsed, min)
	}
}

func TestUnconditionalPutNotRateLimited(t *testing.T) {
	st, admin := newTestStore()
	start := st.Clock().Now()
	for i := 0; i < 5; i++ {
		if _, err := st.Put(admin, "b", "k", []byte("v"), ""); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := st.Clock().Now() - start
	// Plain puts pay only per-request overhead plus streaming time,
	// never mutation pacing.
	want := 5 * sim.GCP.PutOverhead
	if elapsed < want || elapsed > want+time.Millisecond {
		t.Fatalf("plain puts took %v, want ~%v (no mutation governor)", elapsed, want)
	}
}

func TestDelete(t *testing.T) {
	st, admin := newTestStore()
	st.Put(admin, "b", "k", []byte("v"), "")
	if err := st.Delete(admin, "b", "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(admin, "b", "k"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("after delete: %v", err)
	}
	if err := st.Delete(admin, "b", "k"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestAccessControl(t *testing.T) {
	st, admin := newTestStore()
	reader := Credential{Principal: "reader@test"}
	writer := Credential{Principal: "writer@test"}
	stranger := Credential{Principal: "stranger@test"}
	st.Grant(admin, "b", "reader@test", PermRead)
	st.Grant(admin, "b", "writer@test", PermWrite)
	st.Put(admin, "b", "k", []byte("v"), "")

	if _, _, err := st.Get(reader, "b", "k"); err != nil {
		t.Fatalf("reader get: %v", err)
	}
	if _, err := st.Put(reader, "b", "k2", []byte("v"), ""); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("reader put should be denied: %v", err)
	}
	if _, err := st.Put(writer, "b", "k2", []byte("v"), ""); err != nil {
		t.Fatalf("writer put: %v", err)
	}
	if _, _, err := st.Get(stranger, "b", "k"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("stranger get should be denied: %v", err)
	}
	if err := st.Grant(stranger, "b", "stranger@test", PermAdmin); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("stranger self-grant should be denied: %v", err)
	}
}

func TestScopedCredential(t *testing.T) {
	st, admin := newTestStore()
	st.Put(admin, "b", "tables/t1/f1", []byte("a"), "")
	st.Put(admin, "b", "tables/t2/f1", []byte("b"), "")
	scoped, err := admin.WithScope("tables/t1/")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(scoped, "b", "tables/t1/f1"); err != nil {
		t.Fatalf("in-scope get: %v", err)
	}
	if _, _, err := st.Get(scoped, "b", "tables/t2/f1"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("out-of-scope get must be denied: %v", err)
	}
	// Scope can only narrow.
	if _, err := scoped.WithScope("tables/t2/"); err == nil {
		t.Fatal("widening a scoped credential must fail")
	}
	if _, err := scoped.WithScope("tables/t1/part=3/"); err != nil {
		t.Fatalf("narrowing should succeed: %v", err)
	}
}

func TestListPagination(t *testing.T) {
	st, admin := newTestStore()
	n := sim.GCP.ListPageSize*2 + 500
	for i := 0; i < n; i++ {
		if _, err := st.Put(admin, "b", fmt.Sprintf("data/%06d", i), []byte("x"), ""); err != nil {
			t.Fatal(err)
		}
	}
	st.Put(admin, "b", "other/file", []byte("x"), "")

	before := st.Obs().Get("objstore.list.count")
	objs, err := st.ListAll(admin, "b", "data/")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != n {
		t.Fatalf("listed %d, want %d", len(objs), n)
	}
	pages := st.Obs().Get("objstore.list.count") - before
	if pages != 3 {
		t.Fatalf("list used %d pages, want 3", pages)
	}
	for i := 1; i < len(objs); i++ {
		if objs[i-1].Key >= objs[i].Key {
			t.Fatal("list output not sorted")
		}
	}
}

func TestListLatencyScalesWithBucketSize(t *testing.T) {
	st, admin := newTestStore()
	for i := 0; i < 3500; i++ {
		st.Put(admin, "b", fmt.Sprintf("d/%05d", i), nil, "")
	}
	start := st.Clock().Now()
	if _, err := st.ListAll(admin, "b", "d/"); err != nil {
		t.Fatal(err)
	}
	elapsed := st.Clock().Now() - start
	want := 4 * sim.GCP.ListPageLatency // ceil(3500/1000) pages
	if elapsed != want {
		t.Fatalf("list of 3500 objects took %v simulated, want %v", elapsed, want)
	}
}

func TestListPrefixIsolation(t *testing.T) {
	st, admin := newTestStore()
	st.Put(admin, "b", "a/1", nil, "")
	st.Put(admin, "b", "ab/1", nil, "")
	st.Put(admin, "b", "b/1", nil, "")
	objs, err := st.ListAll(admin, "b", "a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Key != "a/1" {
		t.Fatalf("prefix list = %+v", objs)
	}
}

func TestSignedURL(t *testing.T) {
	st, admin := newTestStore()
	st.Put(admin, "b", "img.jpg", []byte("JPEGDATA"), "image/jpeg")
	url, err := st.SignURL(admin, "b", "img.jpg", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	data, info, err := st.Fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "JPEGDATA" || info.ContentType != "image/jpeg" {
		t.Fatalf("fetched %q %+v", data, info)
	}
	// Expiry.
	st.Clock().Advance(2 * time.Minute)
	if _, _, err := st.Fetch(url); !errors.Is(err, ErrBadSignedURL) {
		t.Fatalf("expired fetch: %v", err)
	}
	// Garbage URL.
	if _, _, err := st.Fetch("signed://b/none?sig=999"); !errors.Is(err, ErrBadSignedURL) {
		t.Fatalf("bad url fetch: %v", err)
	}
}

func TestSignURLRequiresAccess(t *testing.T) {
	st, admin := newTestStore()
	st.Put(admin, "b", "k", []byte("v"), "")
	stranger := Credential{Principal: "x@test"}
	if _, err := st.SignURL(stranger, "b", "k", time.Minute); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("stranger sign: %v", err)
	}
	scoped, _ := admin.WithScope("other/")
	if _, err := st.SignURL(scoped, "b", "k", time.Minute); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("out-of-scope sign: %v", err)
	}
}

func TestBucketLifecycle(t *testing.T) {
	st, admin := newTestStore()
	if err := st.CreateBucket(admin, "b"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("dup bucket: %v", err)
	}
	if err := st.CreateBucket(admin, "b2"); err != nil {
		t.Fatal(err)
	}
}

func TestGetChargesLatencyAndMetersBytes(t *testing.T) {
	st, admin := newTestStore()
	payload := make([]byte, 2*sim.MB)
	st.Put(admin, "b", "big", payload, "")
	before := st.Obs().Get("objstore.get.bytes")
	start := st.Clock().Now()
	if _, _, err := st.Get(admin, "b", "big"); err != nil {
		t.Fatal(err)
	}
	elapsed := st.Clock().Now() - start
	want := sim.GCP.GetFirstByte + 2*sim.GCP.ReadPerMB
	if elapsed != want {
		t.Fatalf("get latency %v, want %v", elapsed, want)
	}
	if got := st.Obs().Get("objstore.get.bytes") - before; got != int64(len(payload)) {
		t.Fatalf("objstore.get.bytes = %d", got)
	}
}

func TestParallelTrackReads(t *testing.T) {
	st, admin := newTestStore()
	for i := 0; i < 4; i++ {
		st.Put(admin, "b", fmt.Sprintf("f%d", i), make([]byte, sim.MB), "")
	}
	clockBefore := st.Clock().Now()
	// 4 workers each read one file in parallel tracks.
	tracks := make([]*sim.Track, 4)
	for i := range tracks {
		tracks[i] = st.Clock().StartTrack()
	}
	for i, tr := range tracks {
		if _, _, err := st.GetOn(tr, admin, "b", fmt.Sprintf("f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range tracks {
		tr.Join()
	}
	elapsed := st.Clock().Now() - clockBefore
	perFile := sim.GCP.GetFirstByte + sim.GCP.ReadPerMB
	if elapsed != perFile {
		t.Fatalf("parallel reads took %v, want %v (one file's worth)", elapsed, perFile)
	}
}

func TestObjectCount(t *testing.T) {
	st, admin := newTestStore()
	st.Put(admin, "b", "x/1", nil, "")
	st.Put(admin, "b", "x/2", nil, "")
	st.Put(admin, "b", "y/1", nil, "")
	if got := st.ObjectCount("b", "x/"); got != 2 {
		t.Fatalf("count = %d", got)
	}
	if got := st.ObjectCount("nope", ""); got != 0 {
		t.Fatalf("missing bucket count = %d", got)
	}
}

func TestCustomMetadata(t *testing.T) {
	st, admin := newTestStore()
	_, err := st.PutWithMeta(admin, "b", "doc", []byte("d"), "application/pdf", map[string]string{"source": "scanner"})
	if err != nil {
		t.Fatal(err)
	}
	info, err := st.Head(admin, "b", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Custom["source"] != "scanner" {
		t.Fatalf("custom = %v", info.Custom)
	}
}

func TestPropertyPutThenGetAlwaysRoundTrips(t *testing.T) {
	st, admin := newTestStore()
	i := 0
	if err := quick.Check(func(data []byte) bool {
		i++
		key := fmt.Sprintf("q/%d", i)
		if _, err := st.Put(admin, "b", key, data, ""); err != nil {
			return false
		}
		got, info, err := st.Get(admin, "b", key)
		if err != nil || info.Size != int64(len(data)) {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for j := range got {
			if got[j] != data[j] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyListMatchesContents(t *testing.T) {
	st, admin := newTestStore()
	want := map[string]bool{}
	r := sim.NewRNG(11)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("p/%03d", r.Intn(500))
		st.Put(admin, "b", k, []byte("v"), "")
		want[k] = true
	}
	objs, err := st.ListAll(admin, "b", "p/")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != len(want) {
		t.Fatalf("list %d keys, want %d", len(objs), len(want))
	}
	for _, o := range objs {
		if !want[o.Key] {
			t.Fatalf("unexpected key %q", o.Key)
		}
	}
}
