package globus

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

const waitMax = 5 * time.Second

func TestEndpointPutGet(t *testing.T) {
	s := NewService(0.001)
	ep := s.AddEndpoint("bebop", 100, 0)
	ep.Put("model.bin", []byte("weights"))
	data, err := ep.Get("model.bin")
	if err != nil || string(data) != "weights" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if !ep.Has("model.bin") || ep.Has("missing") {
		t.Fatal("Has is wrong")
	}
	// Mutating the returned slice must not affect the stored copy.
	data[0] = 'X'
	again, _ := ep.Get("model.bin")
	if string(again) != "weights" {
		t.Fatal("Get returned aliased storage")
	}
	ep.Delete("model.bin")
	if _, err := ep.Get("model.bin"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("deleted file err = %v", err)
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	s := NewService(0.001)
	src := s.AddEndpoint("bebop", 100, 0.1)
	s.AddEndpoint("theta", 100, 0.1)
	payload := bytes.Repeat([]byte("x"), 1<<16)
	src.Put("gpr.bin", payload)

	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	tr, err := s.Submit("bebop", "theta", "gpr.bin")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if tr.Bytes != len(payload) {
		t.Fatalf("Bytes = %d", tr.Bytes)
	}
	if tr.Duration <= 0.2 {
		t.Fatalf("Duration = %v, must include both latencies", tr.Duration)
	}
	if err := tr.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	dst, _ := s.Endpoint("theta")
	got, err := dst.Get("gpr.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("transferred data mismatch: %v", err)
	}
}

func TestCopyConvenience(t *testing.T) {
	s := NewService(0.001)
	src := s.AddEndpoint("a", 100, 0)
	s.AddEndpoint("b", 100, 0)
	src.Put("f", []byte("data"))
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	if err := s.Copy(ctx, "a", "b", "f"); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	dst, _ := s.Endpoint("b")
	if !dst.Has("f") {
		t.Fatal("file not copied")
	}
}

func TestTransferErrors(t *testing.T) {
	s := NewService(0.001)
	s.AddEndpoint("a", 100, 0)
	if _, err := s.Submit("a", "nope", "f"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("unknown dst err = %v", err)
	}
	if _, err := s.Submit("nope", "a", "f"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("unknown src err = %v", err)
	}
	if _, err := s.Submit("a", "a", "missing"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("missing file err = %v", err)
	}
}

func TestBandwidthDeterminesDuration(t *testing.T) {
	s := NewService(0.001)
	fast := s.AddEndpoint("fast", 1000, 0)
	s.AddEndpoint("slow", 1, 0) // 1 MB/paper-second
	data := bytes.Repeat([]byte("y"), 2<<20)
	fast.Put("big", data)
	tr, err := s.Submit("fast", "slow", "big")
	if err != nil {
		t.Fatal(err)
	}
	// 2 MiB at 1 MB/s: a bit over 2 paper-seconds (bottleneck link wins).
	if tr.Duration < 2.0 || tr.Duration > 3.0 {
		t.Fatalf("Duration = %v paper-seconds, want ~2.1", tr.Duration)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	if err := tr.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	s := NewService(0.001)
	src := s.AddEndpoint("a", 100, 0)
	s.AddEndpoint("b", 100, 0)
	src.Put("f", []byte("precious"))
	s.CorruptNextTransfer()
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	err := s.Copy(ctx, "a", "b", "f")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted transfer err = %v", err)
	}
	dst, _ := s.Endpoint("b")
	if dst.Has("f") {
		t.Fatal("corrupted file was delivered")
	}
	// The next transfer is clean again.
	if err := s.Copy(ctx, "a", "b", "f"); err != nil {
		t.Fatalf("second Copy: %v", err)
	}
}

func TestWaitContextCancel(t *testing.T) {
	s := NewService(1) // real time: transfer takes ~10 s, we cancel early
	src := s.AddEndpoint("a", 1, 10)
	s.AddEndpoint("b", 1, 0)
	src.Put("f", []byte("x"))
	tr, err := s.Submit("a", "b", "f")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := tr.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v", err)
	}
}

// Delete removes path.
func (ep *Endpoint) Delete(path string) {
	ep.mu.Lock()
	delete(ep.files, path)
	ep.mu.Unlock()
}

// CorruptNextTransfer arms fault injection: the next transfer's payload is
// flipped in transit and must be detected by the checksum.
func (s *Service) CorruptNextTransfer() {
	s.mu.Lock()
	s.corrupt = true
	s.mu.Unlock()
}

// Copy is Submit followed by Wait: the synchronous convenience.
func (s *Service) Copy(ctx context.Context, src, dst, path string) error {
	t, err := s.Submit(src, dst, path)
	if err != nil {
		return err
	}
	return t.Wait(ctx)
}
