package core

import "testing"

// TestNotifyWithoutWaiter: a notify no waiter took the channel for keeps it
// and allocates nothing; one with a waiter closes the channel that waiter
// holds, exactly once, and the next wait gets an open one.
func TestNotifyWithoutWaiter(t *testing.T) {
	n := newNotifier()
	if allocs := testing.AllocsPerRun(100, n.notify); allocs != 0 {
		t.Fatalf("notify with no waiter: %v allocs, want 0", allocs)
	}
	for range 2 {
		ch := n.wait()
		n.notify()
		n.notify() // no waiter since the first: must not close ch again
		select {
		case <-ch:
		default:
			t.Fatal("notify left a waiter's channel open")
		}
		select {
		case <-n.wait():
			t.Fatal("a wait after the notify got a closed channel")
		default:
		}
		n.notify()
	}
}
