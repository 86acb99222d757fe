// Package globus simulates the Globus third-party transfer service OSPREY
// uses for out-of-band movement of large data (paper §IV-E). Endpoints model
// HPC-site data stores with a bandwidth and a per-transfer latency; the
// Service executes asynchronous third-party transfers between them without
// either side holding a connection open, verifying integrity via checksum.
//
// Transfer durations are latency + size/bandwidth in paper-seconds, scaled
// by the repository-wide TimeScale so experiments run quickly while keeping
// the relative cost of wide-area data movement.
package globus

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// Errors returned by the transfer service.
var (
	ErrNoEndpoint = errors.New("globus: unknown endpoint")
	ErrNoFile     = errors.New("globus: no such file")
	ErrCorrupt    = errors.New("globus: checksum mismatch after transfer")
)

// Endpoint is one data store reachable by the transfer service.
type Endpoint struct {
	name      string
	bandwidth float64 // MB per paper-second
	latency   float64 // paper-seconds per transfer

	mu    sync.Mutex
	files map[string][]byte
}

// Name returns the endpoint name.
func (ep *Endpoint) Name() string { return ep.name }

// Put stores data at path on the endpoint.
func (ep *Endpoint) Put(path string, data []byte) {
	ep.mu.Lock()
	ep.files[path] = append([]byte(nil), data...)
	ep.mu.Unlock()
}

// Get reads data at path.
func (ep *Endpoint) Get(path string) ([]byte, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	data, ok := ep.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", ErrNoFile, path, ep.name)
	}
	return append([]byte(nil), data...), nil
}

// Has reports whether path exists on the endpoint.
func (ep *Endpoint) Has(path string) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	_, ok := ep.files[path]
	return ok
}

// Service coordinates third-party transfers between endpoints.
type Service struct {
	timeScale float64

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	nextID    int
	corrupt   bool // fault injection (tests): corrupt the next transfer
}

// NewService creates a transfer service. timeScale converts paper-seconds to
// wall-seconds (default 1 when <= 0).
func NewService(timeScale float64) *Service {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Service{timeScale: timeScale, endpoints: make(map[string]*Endpoint)}
}

// AddEndpoint registers a new endpoint with the given bandwidth (MB per
// paper-second) and per-transfer latency (paper-seconds).
func (s *Service) AddEndpoint(name string, bandwidthMBps, latencySec float64) *Endpoint {
	if bandwidthMBps <= 0 {
		bandwidthMBps = 100
	}
	ep := &Endpoint{
		name:      name,
		bandwidth: bandwidthMBps,
		latency:   latencySec,
		files:     make(map[string][]byte),
	}
	s.mu.Lock()
	s.endpoints[name] = ep
	s.mu.Unlock()
	return ep
}

// Endpoint looks an endpoint up by name.
func (s *Service) Endpoint(name string) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoEndpoint, name)
	}
	return ep, nil
}

// Transfer is a handle on an asynchronous third-party transfer.
type Transfer struct {
	ID       string
	Path     string
	Bytes    int
	Duration float64 // paper-seconds

	done chan struct{}
	err  error
}

// Wait blocks until the transfer completes or ctx is done.
func (t *Transfer) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit starts a third-party transfer of path from src to dst and returns
// immediately. The effective rate is the minimum of the two endpoints'
// bandwidths; latency is the sum of both sides'.
func (s *Service) Submit(src, dst, path string) (*Transfer, error) {
	srcEP, err := s.Endpoint(src)
	if err != nil {
		return nil, err
	}
	dstEP, err := s.Endpoint(dst)
	if err != nil {
		return nil, err
	}
	data, err := srcEP.Get(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("gt-%d", s.nextID)
	corrupt := s.corrupt
	s.corrupt = false
	s.mu.Unlock()

	bw := srcEP.bandwidth
	if dstEP.bandwidth < bw {
		bw = dstEP.bandwidth
	}
	dur := srcEP.latency + dstEP.latency + float64(len(data))/(bw*1e6)
	t := &Transfer{ID: id, Path: path, Bytes: len(data), Duration: dur, done: make(chan struct{})}
	sum := crc32.ChecksumIEEE(data)
	go func() {
		defer close(t.done)
		time.Sleep(time.Duration(dur * s.timeScale * float64(time.Second)))
		if corrupt && len(data) > 0 {
			data[0] ^= 0xFF
		}
		if crc32.ChecksumIEEE(data) != sum {
			t.err = fmt.Errorf("%w: %q", ErrCorrupt, path)
			return
		}
		dstEP.Put(path, data)
	}()
	return t, nil
}
