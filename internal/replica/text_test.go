package replica

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestFollowerStreamTextConcurrentReads: the follower loop carves every
// shipped entry's text from one arena the stream keeps, and the rows it
// applies hold those strings while later entries are carved behind them.
// Reads of the follower's rows run concurrently with the stream; under -race
// this checks no later decode touches bytes an applied row holds, and at the
// end every payload reads back as the leader wrote it.
func TestFollowerStreamTextConcurrentReads(t *testing.T) {
	leader := newNode(t, "n1", 3, "")
	defer leader.Close()
	fol := newNode(t, "n2", 2, leader.Addr())
	defer fol.Close()
	waitFor(t, "bootstrap", func() bool { return fol.Applied() == leader.Applied() })

	ctx := context.Background()
	payload := func(b, i int) string { return fmt.Sprintf(`{"batch": %d, "i": %d, "pad": "%0*d"}`, b, i, i*7, 0) }
	var ids []int64
	var want []string
	var mu sync.Mutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // read back whatever the follower has applied so far
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			n := len(ids)
			mu.Unlock()
			for i := 0; i < n; i++ {
				mu.Lock()
				id, w := ids[i], want[i]
				mu.Unlock()
				if task, err := fol.DB().GetTask(ctx, id); err == nil && task.Payload != w {
					t.Errorf("follower task %d payload %q, want %q", id, task.Payload, w)
					return
				}
			}
		}
	}()
	for b := range 20 {
		ps := make([]string, 1+b%9)
		for i := range ps {
			ps[i] = payload(b, i)
		}
		res, err := leader.DB().SubmitBatch(ctx, "exp", 1, ps, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		ids, want = append(ids, res.IDs...), append(want, ps...)
		mu.Unlock()
	}
	waitFor(t, "stream catch-up", func() bool { return fol.Applied() == leader.Applied() })
	close(done)
	wg.Wait()
	for i, id := range ids {
		task, err := fol.DB().GetTask(ctx, id)
		if err != nil || task.Payload != want[i] {
			t.Fatalf("follower task %d: payload %q, err %v; want %q", id, task.Payload, err, want[i])
		}
	}
}
