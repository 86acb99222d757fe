// Package proxystore implements the ProxyStore data fabric of paper §IV-E:
// a common interface to data irrespective of where it resides. Producers Put
// a byte payload into a named Store and receive a small JSON-serializable
// Proxy reference; consumers pass proxies through size-limited channels
// (such as the 10 MB funcX payload cap) and Resolve them lazily — the bytes
// move only when actually needed, over whichever backend the store plugs in
// (GlobusStore's wide-area transfer here; the tests add in-memory and
// shared-filesystem stores).
package proxystore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"osprey/internal/globus"
)

// Errors returned by the fabric.
var (
	ErrNoStore  = errors.New("proxystore: unknown store")
	ErrNoKey    = errors.New("proxystore: no such key")
	ErrChecksum = errors.New("proxystore: resolved data fails checksum")
)

// Store is a pluggable data backend.
type Store interface {
	// Name identifies the store within a Registry.
	Name() string
	// Put stores data under key.
	Put(key string, data []byte) error
	// Get retrieves the data stored under key.
	Get(key string) ([]byte, error)
}

// Proxy is the lazy reference passed between workflow components in place of
// the data itself.
type Proxy struct {
	Store string `json:"store"`
	Key   string `json:"key"`
	Size  int    `json:"size"`
	Sum   uint32 `json:"sum"`
}

// Encode renders the proxy as its JSON wire form.
func (p Proxy) Encode() string {
	b, _ := json.Marshal(p)
	return string(b)
}

// Decode parses a proxy from its JSON wire form.
func Decode(s string) (Proxy, error) {
	var p Proxy
	if err := json.Unmarshal([]byte(s), &p); err != nil {
		return Proxy{}, fmt.Errorf("proxystore: bad proxy %q: %w", s, err)
	}
	return p, nil
}

// Registry maps store names to Store implementations and resolves proxies,
// caching resolved payloads so repeated resolution is free.
type Registry struct {
	mu     sync.Mutex
	stores map[string]Store
	cache  map[string][]byte
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{stores: make(map[string]Store), cache: make(map[string][]byte)}
}

// Register adds a store.
func (r *Registry) Register(s Store) {
	r.mu.Lock()
	r.stores[s.Name()] = s
	r.mu.Unlock()
}

// Proxy stores data in the named store and returns its reference.
func (r *Registry) Proxy(store, key string, data []byte) (Proxy, error) {
	r.mu.Lock()
	s, ok := r.stores[store]
	r.mu.Unlock()
	if !ok {
		return Proxy{}, fmt.Errorf("%w: %q", ErrNoStore, store)
	}
	if err := s.Put(key, data); err != nil {
		return Proxy{}, err
	}
	return Proxy{Store: store, Key: key, Size: len(data), Sum: crc32.ChecksumIEEE(data)}, nil
}

// Resolve fetches the proxy's payload, verifying size and checksum. Results
// are cached per (store, key).
func (r *Registry) Resolve(p Proxy) ([]byte, error) {
	ck := p.Store + "\x00" + p.Key
	r.mu.Lock()
	if data, ok := r.cache[ck]; ok {
		r.mu.Unlock()
		return data, nil
	}
	s, ok := r.stores[p.Store]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoStore, p.Store)
	}
	data, err := s.Get(p.Key)
	if err != nil {
		return nil, err
	}
	if len(data) != p.Size || crc32.ChecksumIEEE(data) != p.Sum {
		return nil, fmt.Errorf("%w: %s/%s", ErrChecksum, p.Store, p.Key)
	}
	r.mu.Lock()
	r.cache[ck] = data
	r.mu.Unlock()
	return data, nil
}

// --- Globus-backed store ---

// GlobusStore moves payloads between sites with third-party Globus
// transfers. Put writes to the home endpoint; Get on a consumer site pulls
// the payload home→local on demand — exactly how the paper ships the GPR
// model to the reprioritization function.
type GlobusStore struct {
	name  string
	svc   *globus.Service
	home  string // endpoint where Put lands
	local string // endpoint this site reads from
}

// NewGlobusStore creates a Globus-backed store. home is the producing
// endpoint; local is the consuming endpoint (equal to home on the producer
// side).
func NewGlobusStore(name string, svc *globus.Service, home, local string) *GlobusStore {
	return &GlobusStore{name: name, svc: svc, home: home, local: local}
}

// Name implements Store.
func (s *GlobusStore) Name() string { return s.name }

// Put implements Store.
func (s *GlobusStore) Put(key string, data []byte) error {
	ep, err := s.svc.Endpoint(s.home)
	if err != nil {
		return err
	}
	ep.Put(key, data)
	return nil
}

// Get implements Store. The transfer is synchronous from the caller's view
// but third-party underneath: neither site connects to the other directly.
func (s *GlobusStore) Get(key string) ([]byte, error) {
	local, err := s.svc.Endpoint(s.local)
	if err != nil {
		return nil, err
	}
	if !local.Has(key) {
		if s.home == s.local {
			return nil, fmt.Errorf("%w: %q in %q", ErrNoKey, key, s.name)
		}
		t, err := s.svc.Submit(s.home, s.local, key)
		if err != nil {
			if errors.Is(err, globus.ErrNoFile) {
				return nil, fmt.Errorf("%w: %q in %q", ErrNoKey, key, s.name)
			}
			return nil, err
		}
		if err := t.Wait(context.Background()); err != nil {
			return nil, err
		}
	}
	return local.Get(key)
}
