// Package objstore implements the cloud object-store substrate that
// BigLake tables, Object tables, BLMT, and Omni run against. It is an
// in-memory simulator of GCS / S3 / Azure Blob with the API behaviour
// the paper's results depend on:
//
//   - paginated LIST calls that are slow on large buckets (§3.3, §4.1),
//   - per-request overhead on GET/HEAD, so footer-peeking every data
//     file is expensive (§3.3),
//   - conditional PUTs (generation match) with a bounded per-object
//     mutation rate, the property that caps commit throughput of
//     object-store-committed table formats (§3.5),
//   - signed URLs for delegating object access outside the warehouse
//     (§4.1),
//   - per-bucket access control, exercised by the delegated access
//     model (§3.1), and
//   - egress metering for cross-cloud reads (§5.6).
//
// All remote latency is charged to a sim.Clock; data transfer is also
// performed for real so CPU-bound consumers (scans) behave
// authentically.
package objstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biglake/internal/obs"
	"biglake/internal/sim"
)

// Common errors returned by Store operations.
var (
	ErrNoSuchBucket     = errors.New("objstore: no such bucket")
	ErrNoSuchObject     = errors.New("objstore: no such object")
	ErrBucketExists     = errors.New("objstore: bucket already exists")
	ErrPreconditionFail = errors.New("objstore: generation precondition failed")
	ErrAccessDenied     = errors.New("objstore: access denied")
	ErrBadSignedURL     = errors.New("objstore: invalid or expired signed URL")
	// ErrTransient is the injected fault returned by FailNext, standing
	// in for 5xx/timeout responses from a real object store.
	ErrTransient = errors.New("objstore: transient backend error (injected)")
)

// Perm is an access level on a bucket.
type Perm int

// Permission levels, ordered: read < write < admin.
const (
	PermNone Perm = iota
	PermRead
	PermWrite
	PermAdmin
)

// Credential identifies a caller to the object store. In production
// this is a cloud IAM identity; here it is the principal name minted
// by internal/security (a user or a connection service account).
type Credential struct {
	Principal string
	// Scope, when non-empty, restricts the credential to objects whose
	// key has one of these prefixes; used by Omni per-query scoped
	// credentials (§5.3.1).
	Scope []string
}

// AllowsKey reports whether the credential's scope (if any) covers key.
func (c Credential) AllowsKey(key string) bool {
	if len(c.Scope) == 0 {
		return true
	}
	for _, p := range c.Scope {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// WithScope returns a copy of the credential narrowed to the given key
// prefixes. Scoping can only narrow: if the credential already has a
// scope, the new scope entries must fall under it.
func (c Credential) WithScope(prefixes ...string) (Credential, error) {
	for _, p := range prefixes {
		if !c.AllowsKey(p) {
			return Credential{}, fmt.Errorf("objstore: scope %q escapes existing credential scope", p)
		}
	}
	out := c
	out.Scope = append([]string(nil), prefixes...)
	return out, nil
}

// ObjectInfo is the metadata record for one object.
type ObjectInfo struct {
	Key         string
	Size        int64
	ContentType string
	Created     time.Duration // simulated creation time
	Updated     time.Duration // simulated last-update time
	Generation  int64
	Custom      map[string]string
}

type object struct {
	info ObjectInfo
	data []byte
	// prev retains the immediately previous version after a conditional
	// overwrite — one deep, on purpose — so the chaos harness can model
	// a stale read: an eventually-consistent replica serving the old
	// generation's bytes with the old generation's metadata.
	prev *object
}

type bucket struct {
	name    string
	acl     map[string]Perm
	objects map[string]*object
	// sorted key index, maintained lazily
	keys      []string
	keysDirty bool
	// lastMutation tracks the most recent conditional overwrite per
	// key to enforce the bounded mutation rate of §3.5.
	lastMutation map[string]time.Duration
}

func (b *bucket) sortedKeys() []string {
	if b.keysDirty {
		b.keys = b.keys[:0]
		for k := range b.objects {
			b.keys = append(b.keys, k)
		}
		sort.Strings(b.keys)
		b.keysDirty = false
	}
	return b.keys
}

// Store is one cloud's object store (e.g. the GCS instance in region
// us-central1, or S3 in us-east-1).
type Store struct {
	profile sim.CloudProfile
	clock   *sim.Clock
	obs     atomic.Pointer[obs.Registry]
	oc      atomic.Pointer[storeCounters]

	mu         sync.Mutex
	buckets    map[string]*bucket
	urls       map[string]signedGrant
	urlSeq     int64
	failures   int64
	failMatch  string
	failMatchN int64
	inj        *injector
}

// storeCounters holds the store's pre-resolved registry counters so the
// data path pays one atomic add per metric, never a map lookup.
type storeCounters struct {
	getCount, getBytes   *obs.Counter
	putCount, putBytes   *obs.Counter
	listCount, headCount *obs.Counter
	deleteCount          *obs.Counter
	preconditionFailures *obs.Counter
	faults, slowdowns    *obs.Counter
	corruptions          *obs.Counter
}

func resolveStoreCounters(r *obs.Registry) *storeCounters {
	return &storeCounters{
		getCount:             r.Counter("objstore.get.count"),
		getBytes:             r.Counter("objstore.get.bytes"),
		putCount:             r.Counter("objstore.put.count"),
		putBytes:             r.Counter("objstore.put.bytes"),
		listCount:            r.Counter("objstore.list.count"),
		headCount:            r.Counter("objstore.head.count"),
		deleteCount:          r.Counter("objstore.delete.count"),
		preconditionFailures: r.Counter("objstore.precondition_failures"),
		faults:               r.Counter("objstore.faults.injected"),
		slowdowns:            r.Counter("objstore.slowdowns.injected"),
		corruptions:          r.Counter("objstore.corruptions.injected"),
	}
}

// FailNext injects transient failures into the next n data-path
// operations (GET/PUT/LIST/HEAD/DELETE), for failure-propagation
// tests. Injection is consumed per operation, whichever kind arrives
// first. For probabilistic chaos profiles see InjectFaults.
func (s *Store) FailNext(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures = int64(n)
}

// FailNextMatching injects transient failures into the next n
// data-path operations whose key contains substr, letting tests target
// one protocol step (e.g. the journal seal PUT) while the surrounding
// traffic proceeds. Independent of FailNext and InjectFaults.
func (s *Store) FailNextMatching(substr string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failMatch = substr
	s.failMatchN = int64(n)
}

type signedGrant struct {
	bucket  string
	key     string
	expires time.Duration
}

// New returns an empty Store for the given cloud profile, charging
// simulated latency to clock and counting requests and bytes into a
// private registry until UseObs installs a shared one.
func New(profile sim.CloudProfile, clock *sim.Clock) *Store {
	s := &Store{
		profile: profile,
		clock:   clock,
		buckets: make(map[string]*bucket),
		urls:    make(map[string]signedGrant),
	}
	reg := obs.NewRegistry()
	s.obs.Store(reg)
	s.oc.Store(resolveStoreCounters(reg))
	return s
}

// Profile returns the cloud profile the store was built with.
func (s *Store) Profile() sim.CloudProfile { return s.profile }

// Clock returns the simulated clock the store charges.
func (s *Store) Clock() *sim.Clock { return s.clock }

// Obs returns the store's metrics registry (per-op counters under
// "objstore.*" plus the "objstore.faults" event stream).
func (s *Store) Obs() *obs.Registry { return s.obs.Load() }

// UseObs points the store at a shared registry — experiments install
// one registry across engine, store, and metadata so one snapshot
// covers the whole query path. The swap is atomic so it is safe even
// with data-path traffic in flight.
func (s *Store) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	s.obs.Store(r)
	s.oc.Store(resolveStoreCounters(r))
}

// counters returns the current pre-resolved registry handles.
func (s *Store) counters() *storeCounters { return s.oc.Load() }

// CreateBucket creates a bucket owned by the credential's principal.
func (s *Store) CreateBucket(cred Credential, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return ErrBucketExists
	}
	s.buckets[name] = &bucket{
		name:         name,
		acl:          map[string]Perm{cred.Principal: PermAdmin},
		objects:      make(map[string]*object),
		lastMutation: make(map[string]time.Duration),
	}
	return nil
}

// Grant sets a principal's permission on a bucket. The caller must
// hold PermAdmin.
func (s *Store) Grant(cred Credential, bucketName, principal string, p Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ErrNoSuchBucket
	}
	if b.acl[cred.Principal] < PermAdmin {
		return ErrAccessDenied
	}
	b.acl[principal] = p
	return nil
}

func (s *Store) authorized(b *bucket, cred Credential, need Perm, key string) error {
	if b.acl[cred.Principal] < need {
		return fmt.Errorf("%w: principal %q needs %v on bucket %q", ErrAccessDenied, cred.Principal, need, b.name)
	}
	if key != "" && !cred.AllowsKey(key) {
		return fmt.Errorf("%w: key %q outside credential scope", ErrAccessDenied, key)
	}
	return nil
}

// Put writes an object unconditionally, creating or replacing it.
func (s *Store) Put(cred Credential, bucketName, key string, data []byte, contentType string) (ObjectInfo, error) {
	return s.put(cred, bucketName, key, data, contentType, -1, nil)
}

// PutWithMeta writes an object with custom metadata attributes.
func (s *Store) PutWithMeta(cred Credential, bucketName, key string, data []byte, contentType string, custom map[string]string) (ObjectInfo, error) {
	return s.put(cred, bucketName, key, data, contentType, -1, custom)
}

// PutIfGeneration writes an object only if its current generation
// matches ifGeneration (0 means "must not exist"). This is the atomic
// commit primitive open table formats rely on; the simulator enforces
// the per-object mutation-rate bound of §3.5 by pushing the simulated
// clock forward to the next allowed mutation slot when commits arrive
// faster than the store permits.
func (s *Store) PutIfGeneration(cred Credential, bucketName, key string, data []byte, contentType string, ifGeneration int64) (ObjectInfo, error) {
	return s.put(cred, bucketName, key, data, contentType, ifGeneration, nil)
}

func (s *Store) put(cred Credential, bucketName, key string, data []byte, contentType string, ifGeneration int64, custom map[string]string) (ObjectInfo, error) {
	if err := s.fault(OpPut, bucketName, key, s.clock); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return ObjectInfo{}, ErrNoSuchBucket
	}
	if err := s.authorized(b, cred, PermWrite, key); err != nil {
		s.mu.Unlock()
		return ObjectInfo{}, err
	}

	existing := b.objects[key]
	if ifGeneration >= 0 {
		curGen := int64(0)
		if existing != nil {
			curGen = existing.info.Generation
		}
		if curGen != ifGeneration {
			s.mu.Unlock()
			oc := s.counters()
			oc.putCount.Add(1)
			oc.preconditionFailures.Add(1)
			// A failed conditional PUT still costs a round trip.
			s.clock.Advance(s.profile.PutOverhead)
			return ObjectInfo{}, fmt.Errorf("%w: have gen %d, want %d", ErrPreconditionFail, curGen, ifGeneration)
		}
		// Enforce the bounded mutation rate on overwrites of an
		// existing object (the transaction-log commit path).
		if existing != nil {
			last := b.lastMutation[key]
			earliest := last + s.profile.MutationInterval
			if now := s.clock.Now(); now < earliest {
				s.clock.AdvanceTo(earliest)
			}
			b.lastMutation[key] = s.clock.Now()
		}
	}

	gen := int64(1)
	if existing != nil {
		gen = existing.info.Generation + 1
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	now := s.clock.Now()
	created := now
	if existing != nil {
		created = existing.info.Created
	}
	obj := &object{
		info: ObjectInfo{
			Key:         key,
			Size:        int64(len(data)),
			ContentType: contentType,
			Created:     created,
			Updated:     now,
			Generation:  gen,
			Custom:      custom,
		},
		data: cp,
	}
	if existing != nil {
		// Keep exactly one superseded version for stale-read injection;
		// drop anything older so overwrite chains stay O(1).
		obj.prev = &object{info: existing.info, data: existing.data}
	}
	if existing == nil {
		b.keysDirty = true
	}
	b.objects[key] = obj
	info := obj.info
	s.mu.Unlock()

	oc := s.counters()
	oc.putCount.Add(1)
	oc.putBytes.Add(int64(len(data)))
	s.clock.Advance(s.profile.PutOverhead + sim.StreamTime(int64(len(data)), s.profile.WritePerMB))
	return info, nil
}

// Get returns the full contents and metadata of an object.
func (s *Store) Get(cred Credential, bucketName, key string) ([]byte, ObjectInfo, error) {
	return s.getRange(s.clock, cred, bucketName, key, 0, -1)
}

// GetOn is Get with latency charged to ch (a parallel worker track or
// the global clock).
func (s *Store) GetOn(ch sim.Charger, cred Credential, bucketName, key string) ([]byte, ObjectInfo, error) {
	return s.getRange(ch, cred, bucketName, key, 0, -1)
}

// GetRange returns length bytes starting at offset (length < 0 means
// "to end"). Footer reads of columnar files use this so they pay only
// request overhead plus the footer bytes, like a real ranged GET.
func (s *Store) GetRange(cred Credential, bucketName, key string, offset, length int64) ([]byte, ObjectInfo, error) {
	return s.getRange(s.clock, cred, bucketName, key, offset, length)
}

// GetRangeOn is GetRange charged to ch.
func (s *Store) GetRangeOn(ch sim.Charger, cred Credential, bucketName, key string, offset, length int64) ([]byte, ObjectInfo, error) {
	return s.getRange(ch, cred, bucketName, key, offset, length)
}

func (s *Store) getRange(ch sim.Charger, cred Credential, bucketName, key string, offset, length int64) ([]byte, ObjectInfo, error) {
	if err := s.fault(OpGet, bucketName, key, ch); err != nil {
		return nil, ObjectInfo{}, err
	}
	s.mu.Lock()
	var cor corruption
	corrupt := false
	if in := s.inj; in != nil {
		cor, corrupt = in.corruptDecide(OpGet, bucketName, key)
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return nil, ObjectInfo{}, ErrNoSuchBucket
	}
	if err := s.authorized(b, cred, PermRead, key); err != nil {
		s.mu.Unlock()
		return nil, ObjectInfo{}, err
	}
	obj, ok := b.objects[key]
	if !ok {
		s.mu.Unlock()
		s.counters().getCount.Add(1)
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucketName, key)
	}
	src := obj
	if corrupt && cor.kind == "stale" {
		if obj.prev != nil {
			src = obj.prev
		} else {
			// Never-overwritten object: no stale version exists, degrade
			// the event to a bit flip so the injection rate holds.
			cor.kind = "bitflip"
		}
	}
	if offset < 0 {
		offset = 0
	}
	if offset > int64(len(src.data)) {
		offset = int64(len(src.data))
	}
	end := int64(len(src.data))
	if length >= 0 && offset+length < end {
		end = offset + length
	}
	data := make([]byte, end-offset)
	copy(data, src.data[offset:end])
	info := src.info
	s.mu.Unlock()

	if corrupt {
		applied := ""
		switch cor.kind {
		case "bitflip":
			if len(data) > 0 {
				bit := int(cor.pos * float64(len(data)*8))
				data[bit/8] ^= 1 << (bit % 8)
				applied = "corrupt:bitflip"
			}
		case "truncate":
			if len(data) > 0 {
				data = data[:int(cor.pos*float64(len(data)))]
				applied = "corrupt:truncate"
			}
		case "stale":
			applied = "corrupt:stale"
		}
		if applied != "" {
			s.recordFault(FaultRecord{Op: OpGet, Bucket: bucketName, Key: key, Call: cor.call, Kind: applied})
		}
	}

	oc := s.counters()
	oc.getCount.Add(1)
	oc.getBytes.Add(int64(len(data)))
	ch.Charge(s.profile.GetFirstByte + sim.StreamTime(int64(len(data)), s.profile.ReadPerMB))
	return data, info, nil
}

// Head returns object metadata without the body.
func (s *Store) Head(cred Credential, bucketName, key string) (ObjectInfo, error) {
	return s.HeadOn(s.clock, cred, bucketName, key)
}

// HeadOn is Head charged to ch.
func (s *Store) HeadOn(ch sim.Charger, cred Credential, bucketName, key string) (ObjectInfo, error) {
	if err := s.fault(OpHead, bucketName, key, ch); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return ObjectInfo{}, ErrNoSuchBucket
	}
	if err := s.authorized(b, cred, PermRead, key); err != nil {
		s.mu.Unlock()
		return ObjectInfo{}, err
	}
	obj, ok := b.objects[key]
	if !ok {
		s.mu.Unlock()
		s.counters().headCount.Add(1)
		return ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucketName, key)
	}
	info := obj.info
	s.mu.Unlock()
	s.counters().headCount.Add(1)
	ch.Charge(s.profile.HeadLatency)
	return info, nil
}

// Delete removes an object. Deleting a missing object is an error, as
// on real stores.
func (s *Store) Delete(cred Credential, bucketName, key string) error {
	if err := s.fault(OpDelete, bucketName, key, s.clock); err != nil {
		return err
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return ErrNoSuchBucket
	}
	if err := s.authorized(b, cred, PermWrite, key); err != nil {
		s.mu.Unlock()
		return err
	}
	if _, ok := b.objects[key]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucketName, key)
	}
	delete(b.objects, key)
	delete(b.lastMutation, key)
	b.keysDirty = true
	s.mu.Unlock()
	s.counters().deleteCount.Add(1)
	s.clock.Advance(s.profile.DeleteLatency)
	return nil
}

// ListPage is one page of LIST results.
type ListPage struct {
	Objects   []ObjectInfo
	NextToken string
}

// List returns one page of objects with the given key prefix, starting
// after pageToken (empty for the first page). Each page costs one
// LIST round trip of simulated latency — the property that makes
// listing millions of objects "inherently slow" (§3.3).
func (s *Store) List(cred Credential, bucketName, prefix, pageToken string) (ListPage, error) {
	return s.ListOn(s.clock, cred, bucketName, prefix, pageToken)
}

// ListOn is List charged to ch.
func (s *Store) ListOn(ch sim.Charger, cred Credential, bucketName, prefix, pageToken string) (ListPage, error) {
	if err := s.fault(OpList, bucketName, prefix, ch); err != nil {
		return ListPage{}, err
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return ListPage{}, ErrNoSuchBucket
	}
	if err := s.authorized(b, cred, PermRead, ""); err != nil {
		s.mu.Unlock()
		return ListPage{}, err
	}
	keys := b.sortedKeys()
	start := sort.SearchStrings(keys, prefix)
	if pageToken != "" {
		start = sort.SearchStrings(keys, pageToken)
		for start < len(keys) && keys[start] <= pageToken {
			start++
		}
	}
	page := ListPage{}
	for i := start; i < len(keys) && len(page.Objects) < s.profile.ListPageSize; i++ {
		k := keys[i]
		if !strings.HasPrefix(k, prefix) {
			break
		}
		page.Objects = append(page.Objects, b.objects[k].info)
	}
	if n := len(page.Objects); n == s.profile.ListPageSize {
		last := page.Objects[n-1].Key
		// More pages only if another matching key exists.
		idx := sort.SearchStrings(keys, last) + 1
		if idx < len(keys) && strings.HasPrefix(keys[idx], prefix) {
			page.NextToken = last
		}
	}
	s.mu.Unlock()

	s.counters().listCount.Add(1)
	ch.Charge(s.profile.ListPageLatency)
	return page, nil
}

// ListAll drains every page for a prefix, paying full pagination cost.
func (s *Store) ListAll(cred Credential, bucketName, prefix string) ([]ObjectInfo, error) {
	var out []ObjectInfo
	token := ""
	for {
		page, err := s.List(cred, bucketName, prefix, token)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Objects...)
		if page.NextToken == "" {
			return out, nil
		}
		token = page.NextToken
	}
}

// SignURL mints a signed URL granting bearer access to one object for
// ttl of simulated time (§4.1). The caller must itself have read
// access.
func (s *Store) SignURL(cred Credential, bucketName, key string, ttl time.Duration) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return "", ErrNoSuchBucket
	}
	if err := s.authorized(b, cred, PermRead, key); err != nil {
		return "", err
	}
	if _, ok := b.objects[key]; !ok {
		return "", fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucketName, key)
	}
	s.urlSeq++
	url := fmt.Sprintf("signed://%s/%s/%s?sig=%d", s.profile.Name, bucketName, key, s.urlSeq)
	s.urls[url] = signedGrant{bucket: bucketName, key: key, expires: s.clock.Now() + ttl}
	return url, nil
}

// Fetch redeems a signed URL without any credential — the bearer-token
// path used by remote functions and first-party model services.
func (s *Store) Fetch(url string) ([]byte, ObjectInfo, error) {
	s.mu.Lock()
	grant, ok := s.urls[url]
	if !ok || s.clock.Now() > grant.expires {
		s.mu.Unlock()
		return nil, ObjectInfo{}, ErrBadSignedURL
	}
	b := s.buckets[grant.bucket]
	if b == nil {
		s.mu.Unlock()
		return nil, ObjectInfo{}, ErrNoSuchBucket
	}
	obj, ok := b.objects[grant.key]
	if !ok {
		s.mu.Unlock()
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoSuchObject, grant.bucket, grant.key)
	}
	data := make([]byte, len(obj.data))
	copy(data, obj.data)
	info := obj.info
	s.mu.Unlock()
	oc := s.counters()
	oc.getCount.Add(1)
	oc.getBytes.Add(int64(len(data)))
	s.clock.Advance(s.profile.GetFirstByte + sim.StreamTime(int64(len(data)), s.profile.ReadPerMB))
	return data, info, nil
}

// FlipStoredBit flips one bit of an object's stored body in place,
// without touching generation, size, or timestamps — simulated at-rest
// bit rot. Unlike FaultProfile corruption (which damages responses in
// flight) this damages the durable copy, so every future read returns
// the same wrong bytes until a repair rewrites the object. Harness
// helper for scrubber/repair experiments, not a cloud API.
func (s *Store) FlipStoredBit(bucketName, key string, bit int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ErrNoSuchBucket
	}
	obj, ok := b.objects[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucketName, key)
	}
	total := int64(len(obj.data)) * 8
	if total == 0 {
		return fmt.Errorf("objstore: cannot flip a bit of empty object %s/%s", bucketName, key)
	}
	bit = ((bit % total) + total) % total
	// The body may be aliased by a prev-version retained elsewhere;
	// re-copy before damaging so only this object's bytes rot.
	cp := make([]byte, len(obj.data))
	copy(cp, obj.data)
	cp[bit/8] ^= 1 << uint(bit%8)
	obj.data = cp
	return nil
}

// ObjectCount returns the number of objects with the prefix without
// charging API latency; a test/bookkeeping helper, not a cloud API.
func (s *Store) ObjectCount(bucketName, prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return 0
	}
	n := 0
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}
