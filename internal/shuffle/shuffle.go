// Package shuffle implements BigQuery's disaggregated in-memory
// shuffle tier (§2, §5.4): a service separate from compute workers
// that buffers partitioned intermediate results, provides query
// checkpointing for dynamic re-optimization, and (on Omni) replaces
// its Spanner state tracking with a local small-state store.
package shuffle

import (
	"errors"
	"fmt"
	"sync"

	"biglake/internal/obs"
	"biglake/internal/sim"
)

// Errors returned by the shuffle service.
var (
	ErrNoSession    = errors.New("shuffle: no such session")
	ErrBadPartition = errors.New("shuffle: partition out of range")
	ErrSealed       = errors.New("shuffle: session sealed")
)

// Service is one region's shuffle tier. Payloads are opaque byte
// slices (serialized vector batches).
type Service struct {
	clock *sim.Clock
	// obs receives "shuffle.bytes", the payload bytes buffered.
	obs *obs.Registry

	mu       sync.Mutex
	sessions map[string]*session
	seq      int
}

type session struct {
	partitions [][][]byte
	sealed     bool
	checkpoint [][][]byte
}

// New returns an empty shuffle service that counts into its owner's
// registry reg.
func New(clock *sim.Clock, reg *obs.Registry) *Service {
	return &Service{clock: clock, obs: reg, sessions: make(map[string]*session)}
}

// UseObs points the service's counters at a shared registry.
func (s *Service) UseObs(r *obs.Registry) {
	if r != nil {
		s.obs = r
	}
}

// CreateSession allocates a shuffle session with n partitions and
// returns its id.
func (s *Service) CreateSession(n int) (string, error) {
	if n <= 0 {
		return "", fmt.Errorf("shuffle: need at least 1 partition, got %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("shuffle-%d", s.seq)
	s.sessions[id] = &session{partitions: make([][][]byte, n)}
	return id, nil
}

// Write appends a payload to one partition of a session. Concurrent
// writers are supported.
func (s *Service) Write(id string, partition int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	if sess.sealed {
		return fmt.Errorf("%w: %s", ErrSealed, id)
	}
	if partition < 0 || partition >= len(sess.partitions) {
		return fmt.Errorf("%w: %d of %d", ErrBadPartition, partition, len(sess.partitions))
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	sess.partitions[partition] = append(sess.partitions[partition], cp)
	s.obs.Counter("shuffle.bytes").Add(int64(len(payload)))
	return nil
}

// Seal marks a session read-only; readers may then drain partitions.
func (s *Service) Seal(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	sess.sealed = true
	return nil
}

// Read returns all payloads for one partition. The session must be
// sealed (shuffle consumers start after producers finish a stage).
func (s *Service) Read(id string, partition int) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	if !sess.sealed {
		return nil, fmt.Errorf("shuffle: session %s not sealed", id)
	}
	if partition < 0 || partition >= len(sess.partitions) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadPartition, partition, len(sess.partitions))
	}
	return sess.partitions[partition], nil
}

// Checkpoint snapshots the session's current contents; Restore rolls
// back to it. Dremel uses shuffle checkpoints for dynamic query
// re-optimization (§2).
func (s *Service) Checkpoint(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	cp := make([][][]byte, len(sess.partitions))
	for i, part := range sess.partitions {
		cp[i] = append([][]byte(nil), part...)
	}
	sess.checkpoint = cp
	return nil
}

// Restore rolls the session back to its last checkpoint.
func (s *Service) Restore(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	if sess.checkpoint == nil {
		return fmt.Errorf("shuffle: session %s has no checkpoint", id)
	}
	sess.partitions = make([][][]byte, len(sess.checkpoint))
	for i, part := range sess.checkpoint {
		sess.partitions[i] = append([][]byte(nil), part...)
	}
	sess.sealed = false
	return nil
}

// Drop releases a session's memory.
func (s *Service) Drop(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, id)
}

// Partitions reports the partition count of a session.
func (s *Service) Partitions(id string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSession, id)
	}
	return len(sess.partitions), nil
}
