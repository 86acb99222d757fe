package minisql

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncHookFS is OSFS with a hook in front of every file's Sync, so a test can
// hold an fsync open, make it take a known time, or fail it (a non-nil error
// from the hook is Sync's, and the file is not synced).
type syncHookFS struct {
	FS
	beforeSync func(name string) error
}

func (fs syncHookFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncHookFile{f, fs.beforeSync}, nil
}

func (fs syncHookFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return syncHookFile{f, fs.beforeSync}, nil
}

type syncHookFile struct {
	File
	beforeSync func(name string) error
}

func (f syncHookFile) Sync() error {
	if err := f.beforeSync(f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestSyncLoopNeverSleeps: the group-commit window is the fsync in flight.
// Entries appended while fsync N is held are all covered by fsync N+1, which
// starts as soon as N returns, and the writers waiting on them finish with it.
func TestSyncLoopNeverSleeps(t *testing.T) {
	started := make(chan struct{}, 16) // one token per Sync that began; roomier than the Syncs this test can cause
	release := make(chan struct{})     // one receive lets one Sync proceed; closed, all do
	fsys := syncHookFS{OSFS, func(string) error {
		started <- struct{}{}
		<-release
		return nil
	}}
	d, err := OpenDiskLogFS(fsys, t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer close(release) // before Close, whose own Syncs must pass
	await := func(what string) {
		t.Helper()
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not start", what)
		}
	}

	if err := d.Append(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	await("fsync 1")

	// Fsync 1 is held open. Eight writers append and wait behind it.
	const writers = 8
	var wg sync.WaitGroup
	for i := uint64(2); i < 2+writers; i++ {
		if err := d.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(idx uint64) {
			defer wg.Done()
			if err := d.WaitDurable(idx, 10*time.Second); err != nil {
				t.Errorf("WaitDurable(%d): %v", idx, err)
			}
		}(i)
	}
	if st := d.Stats(); st.Synced != 0 || st.Fsyncs != 0 {
		t.Fatalf("synced=%d fsyncs=%d while fsync 1 is still held", st.Synced, st.Fsyncs)
	}

	release <- struct{}{}
	await("fsync 2") // requested by the appends above; nothing else prompts it
	if st := d.Stats(); st.Synced != 1 || st.Fsyncs != 1 {
		t.Fatalf("synced=%d fsyncs=%d after fsync 1, want 1 and 1: fsync 1 may cover only what preceded it", st.Synced, st.Fsyncs)
	}
	release <- struct{}{}
	wg.Wait()
	if st := d.Stats(); st.Synced != 1+writers || st.Fsyncs != 2 {
		t.Fatalf("synced=%d fsyncs=%d, want %d and 2: fsync 2 covers everything appended during fsync 1", st.Synced, st.Fsyncs, 1+writers)
	}
}

// TestGroupCommitSharesFsyncs: with no window to wait out, grouping comes from
// the fsync's own length — while one is on the disk the other writers' entries
// pile up behind it and share the next.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	fsys := syncHookFS{OSFS, func(string) error { time.Sleep(2 * time.Millisecond); return nil }}
	d, err := OpenDiskLogFS(fsys, t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const writers, each = 8, 200
	var (
		mu   sync.Mutex // appends must arrive in index order
		next uint64
		wg   sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mu.Lock()
				next++
				idx := next
				err := d.Append(testEntry(idx))
				mu.Unlock()
				if err == nil {
					err = d.WaitDurable(idx, 10*time.Second)
				}
				if err != nil {
					t.Errorf("entry %d: %v", idx, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.Synced != writers*each {
		t.Fatalf("synced=%d, want %d", st.Synced, writers*each)
	}
	if st.Fsyncs >= writers*each/2 {
		t.Fatalf("%d fsyncs for %d durable appends by %d writers: they are not sharing", st.Fsyncs, writers*each, writers)
	}
	t.Logf("%d fsyncs for %d appends (%.1f entries per fsync)", st.Fsyncs, writers*each, float64(writers*each)/float64(st.Fsyncs))
}

// TestCloseReleasesWaitDurable: a WaitDurable parked in fsync mode on an
// entry not yet durable returns the closed error as soon as the log closes,
// not at its timeout.
func TestCloseReleasesWaitDurable(t *testing.T) {
	d, err := OpenDiskLogFS(nil, t.TempDir(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRecords(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.WaitDurable(2, time.Minute) }() // entry 2 is never appended
	time.Sleep(20 * time.Millisecond)                     // let the waiter park
	start := time.Now()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("WaitDurable on a closing log = %v, want the closed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a parked WaitDurable was not released by Close")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("WaitDurable returned %v after Close", el)
	}
}
