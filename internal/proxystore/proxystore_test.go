package proxystore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"osprey/internal/globus"
)

func TestMemStoreRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register(NewMemStore("mem"))
	p, err := r.Proxy("mem", "k1", []byte("hello"))
	if err != nil {
		t.Fatalf("Proxy: %v", err)
	}
	if p.Size != 5 || p.Store != "mem" || p.Key != "k1" {
		t.Fatalf("proxy = %+v", p)
	}
	data, err := r.Resolve(p)
	if err != nil || string(data) != "hello" {
		t.Fatalf("Resolve = %q, %v", data, err)
	}
}

func TestProxyWireFormat(t *testing.T) {
	p := Proxy{Store: "s", Key: "k", Size: 3, Sum: 42}
	enc := p.Encode()
	got, err := Decode(enc)
	if err != nil || got != p {
		t.Fatalf("Decode(%q) = %+v, %v", enc, got, err)
	}
	if _, err := Decode("{not json"); err == nil {
		t.Fatal("bad JSON must error")
	}
}

func TestUnknownStoreAndKey(t *testing.T) {
	r := NewRegistry()
	r.Register(NewMemStore("mem"))
	if _, err := r.Proxy("nope", "k", nil); !errors.Is(err, ErrNoStore) {
		t.Fatalf("unknown store err = %v", err)
	}
	if _, err := r.Resolve(Proxy{Store: "nope", Key: "k"}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("resolve unknown store err = %v", err)
	}
	if _, err := r.Resolve(Proxy{Store: "mem", Key: "missing"}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestChecksumValidation(t *testing.T) {
	r := NewRegistry()
	mem := NewMemStore("mem")
	r.Register(mem)
	p, _ := r.Proxy("mem", "k", []byte("original"))
	// Tamper with the stored bytes behind the registry's back.
	mem.Put("k", []byte("tampered"))
	if _, err := r.Resolve(p); !errors.Is(err, ErrChecksum) {
		t.Fatalf("tampered resolve err = %v", err)
	}
}

func TestResolveCaching(t *testing.T) {
	r := NewRegistry()
	mem := NewMemStore("mem")
	r.Register(mem)
	p, _ := r.Proxy("mem", "k", []byte("v1"))
	if _, err := r.Resolve(p); err != nil {
		t.Fatal(err)
	}
	// Delete from the backend: the cache still serves it.
	mem.Delete("k")
	data, err := r.Resolve(p)
	if err != nil || string(data) != "v1" {
		t.Fatalf("cached Resolve = %q, %v", data, err)
	}
	r.Evict(p)
	if _, err := r.Resolve(p); !errors.Is(err, ErrNoKey) {
		t.Fatalf("after evict err = %v", err)
	}
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore("fs", dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.Register(fs)
	p, err := r.Proxy("fs", "dir/with/slashes", []byte("persisted"))
	if err != nil {
		t.Fatalf("Proxy: %v", err)
	}
	data, err := r.Resolve(p)
	if err != nil || string(data) != "persisted" {
		t.Fatalf("Resolve = %q, %v", data, err)
	}
	if err := fs.Delete("dir/with/slashes"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("dir/with/slashes"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("deleted key err = %v", err)
	}
	if err := fs.Delete("never-existed"); err != nil {
		t.Fatalf("deleting a missing key must be a no-op: %v", err)
	}
}

func TestGlobusStoreCrossSite(t *testing.T) {
	// Producer on "laptop" puts the model; consumer on "theta" resolves it,
	// triggering a third-party transfer — the paper's GPR proxy path.
	svc := globus.NewService(0.0001)
	svc.AddEndpoint("laptop", 100, 0.05)
	svc.AddEndpoint("theta", 100, 0.05)

	producer := NewRegistry()
	producer.Register(NewGlobusStore("globus", svc, "laptop", "laptop"))
	payload := bytes.Repeat([]byte("model"), 4096)
	p, err := producer.Proxy("globus", "gpr-round-3", payload)
	if err != nil {
		t.Fatalf("Proxy: %v", err)
	}

	// The proxy crosses the wire as a tiny JSON string.
	wire := p.Encode()
	if len(wire) > 200 {
		t.Fatalf("proxy wire form is %d bytes; it must be small", len(wire))
	}
	remote, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}

	consumer := NewRegistry()
	consumer.Register(NewGlobusStore("globus", svc, "laptop", "theta"))
	data, err := consumer.Resolve(remote)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("cross-site Resolve failed: %v", err)
	}
	// The payload now lives on theta: resolving again hits the local copy.
	thetaEP, _ := svc.Endpoint("theta")
	if !thetaEP.Has("gpr-round-3") {
		t.Fatal("payload not staged on consumer site")
	}
}

func TestGlobusStoreMissingKey(t *testing.T) {
	svc := globus.NewService(0.0001)
	svc.AddEndpoint("a", 100, 0)
	svc.AddEndpoint("b", 100, 0)
	r := NewRegistry()
	r.Register(NewGlobusStore("g", svc, "a", "b"))
	if _, err := r.Resolve(Proxy{Store: "g", Key: "missing"}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("missing key err = %v", err)
	}
	same := NewGlobusStore("g2", svc, "a", "a")
	if _, err := same.Get("missing"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("same-site missing key err = %v", err)
	}
}

// Property: proxy → resolve is the identity for arbitrary payloads across
// every store type.
func TestPropertyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore("fs", dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := globus.NewService(0.00001)
	svc.AddEndpoint("a", 1000, 0)
	stores := []Store{NewMemStore("mem"), fs, NewGlobusStore("g", svc, "a", "a")}
	r := NewRegistry()
	for _, s := range stores {
		r.Register(s)
	}
	i := 0
	f := func(data []byte) bool {
		i++
		for _, s := range stores {
			key := s.Name() + "-key"
			p, err := r.Proxy(s.Name(), key, data)
			if err != nil {
				return false
			}
			r.Evict(p)
			got, err := r.Resolve(p)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
			r.Evict(p)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Evict drops a cached resolution.
func (r *Registry) Evict(p Proxy) {
	r.mu.Lock()
	delete(r.cache, p.Store+"\x00"+p.Key)
	r.mu.Unlock()
}

// MemStore is a process-local store (ProxyStore's Redis-like backend).
type MemStore struct {
	name string
	mu   sync.Mutex
	m    map[string][]byte
}

// NewMemStore creates an in-memory store.
func NewMemStore(name string) *MemStore {
	return &MemStore{name: name, m: make(map[string][]byte)}
}

// Name implements Store.
func (s *MemStore) Name() string { return s.name }

// Put implements Store.
func (s *MemStore) Put(key string, data []byte) error {
	s.mu.Lock()
	s.m[key] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoKey, key, s.name)
	}
	return append([]byte(nil), data...), nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}

// FileStore persists payloads under a directory, modeling ProxyStore's
// shared-filesystem backend.
type FileStore struct {
	name string
	dir  string
}

// NewFileStore creates a file-backed store rooted at dir.
func NewFileStore(name, dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("proxystore: %w", err)
	}
	return &FileStore{name: name, dir: dir}, nil
}

// Name implements Store.
func (s *FileStore) Name() string { return s.name }

func (s *FileStore) path(key string) string {
	// Keys may contain separators; flatten them.
	safe := strings.NewReplacer("/", "_", "\\", "_", "..", "_").Replace(key)
	return filepath.Join(s.dir, safe)
}

// Put implements Store.
func (s *FileStore) Put(key string, data []byte) error {
	return os.WriteFile(s.path(key), data, 0o644)
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoKey, key, s.name)
	}
	return data, err
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	err := os.Remove(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
