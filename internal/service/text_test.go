package service

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"osprey/internal/core"
)

// frameStream encodes each message as one frame through a writing frameIO.
func frameStream(t *testing.T, n int, write func(*frameIO, *bufio.Writer, int) error) []byte {
	t.Helper()
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	var f frameIO
	for i := range n {
		if err := write(&f, w, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func batchRequest(i, n int) request {
	req := request{Op: "submit_batch", Trace: fmt.Sprintf("trace-%d", i), ExpID: "exp", WorkType: 1}
	for j := range n {
		req.Payloads = append(req.Payloads, fmt.Sprintf(`{"x": [%d.25, %d.5, 0.75]}`, i, j))
		req.DedupKeys = append(req.DedupKeys, fmt.Sprintf("cc-0011223344556677-%d", i*n+j))
	}
	return req
}

func tasksResponse(i, n int) response {
	resp := response{OK: true, Token: uint64(i + 1)}
	for j := range n {
		resp.Tasks = append(resp.Tasks, core.Task{ID: int64(i*n + j), ExpID: "exp", WorkType: 1, Status: core.StatusRunning,
			Payload: fmt.Sprintf(`{"x": [%d.25, %d.5, 0.75]}`, i, j), Pool: "pool-1",
			Created: time.Unix(0, 1), Started: time.Unix(0, 2)})
	}
	return resp
}

// TestDecodedWireTextOutlivesFrame: strings a frameIO decodes are carved from
// its arena, not the frame buffer: scribbling over a frame's bytes after it
// decoded, and decoding 100 more frames through the same frameIO, leaves
// every request and response decoded so far as it was sent.
func TestDecodedWireTextOutlivesFrame(t *testing.T) {
	const frames = 101
	reqs := frameStream(t, frames, func(f *frameIO, w *bufio.Writer, i int) error {
		req := batchRequest(i, 1+i%7)
		return f.writeRequest(w, uint64(i), &req)
	})
	var rf frameIO
	r := bufio.NewReader(bytes.NewReader(reqs))
	var gotReqs []request
	for range frames {
		_, req, err := rf.readRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		gotReqs = append(gotReqs, req)
		scribble(rf.buf)
	}
	for i, got := range gotReqs {
		if want := batchRequest(i, 1+i%7); !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d after later frames:\n %+v\nwant\n %+v", i, got, want)
		}
	}

	resps := frameStream(t, frames, func(f *frameIO, w *bufio.Writer, i int) error {
		resp := tasksResponse(i, i%5)
		return f.writeResponse(w, uint64(i), &resp)
	})
	rf = frameIO{}
	r = bufio.NewReader(bytes.NewReader(resps))
	var gotResps []response
	for range frames {
		var resp response
		if _, err := rf.readResponse(r, &resp); err != nil {
			t.Fatal(err)
		}
		gotResps = append(gotResps, resp)
		scribble(rf.buf)
	}
	for i, got := range gotResps {
		if want := tasksResponse(i, i%5); !reflect.DeepEqual(got, want) {
			t.Fatalf("response %d after later frames:\n %+v\nwant\n %+v", i, got, want)
		}
	}
}

// scribble overwrites b so that no string over it keeps its bytes.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// TestWireDecodeTextAllocs: a frame's text costs one arena chunk, not one
// allocation per string. A 50-payload submit_batch request decodes in at most
// three allocations (Payloads, DedupKeys and a chunk), a 16-task query_tasks
// response in at most three (Tasks and a chunk).
func TestWireDecodeTextAllocs(t *testing.T) {
	req := batchRequest(0, 50)
	resp := tasksResponse(0, 16)
	for name, c := range map[string]struct {
		frame []byte
		read  func(*frameIO, *bufio.Reader) error
	}{
		"submit_batch request": {
			frame: frameStream(t, 1, func(f *frameIO, w *bufio.Writer, _ int) error { return f.writeRequest(w, 1, &req) }),
			read: func(f *frameIO, r *bufio.Reader) error {
				_, got, err := f.readRequest(r)
				if len(got.Payloads) != 50 {
					t.Fatalf("decoded %d payloads", len(got.Payloads))
				}
				return err
			},
		},
		"query_tasks response": {
			frame: frameStream(t, 1, func(f *frameIO, w *bufio.Writer, _ int) error { return f.writeResponse(w, 1, &resp) }),
			read: func(f *frameIO, r *bufio.Reader) error {
				var got response
				_, err := f.readResponse(r, &got)
				if len(got.Tasks) != 16 {
					t.Fatalf("decoded %d tasks", len(got.Tasks))
				}
				return err
			},
		},
	} {
		var f frameIO
		src := bytes.NewReader(c.frame)
		r := bufio.NewReader(src)
		if allocs := testing.AllocsPerRun(100, func() {
			src.Reset(c.frame)
			r.Reset(src)
			if err := c.read(&f, r); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Errorf("%s: %v allocs, want at most 3", name, allocs)
		}
	}
}

// TestClientDemuxTextConcurrent: responses a client's demux goroutine carves
// from its one arena are read by the calling goroutines while the demux goes
// on decoding later frames into the same arena. Run under -race it checks
// that no two of them touch the same bytes.
func TestClientDemuxTextConcurrent(t *testing.T) {
	_, c := newServerClient(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 25 {
				payload := fmt.Sprintf(`{"g": %d, "i": %d}`, g, i)
				id, err := idOf(c.Submit(bg, fmt.Sprintf("exp-%d", g), 1, payload))
				if err == nil {
					var got string
					task, gerr := c.GetTask(bg, id)
					got, err = task.Payload, gerr
					if err == nil && got != payload {
						err = fmt.Errorf("task %d payload %q, want %q", id, got, payload)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
