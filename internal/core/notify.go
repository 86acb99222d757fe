package core

import "sync"

// notifier is a broadcast signal: waiters grab the current channel and block
// on it; notify closes that channel and installs a fresh one. This gives the
// polling queries prompt wakeups without busy-waiting while preserving the
// delay/timeout semantics of the paper's API. A notify with no waiter since
// the last one keeps the channel: a follower, which parks no long-poll,
// commits without making channels nobody waits on.
type notifier struct {
	mu    sync.Mutex
	ch    chan struct{}
	taken bool // a waiter took ch since it was made
}

func newNotifier() *notifier {
	return &notifier{ch: make(chan struct{})}
}

// wait returns a channel closed at the next notify.
func (n *notifier) wait() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.taken = true
	return n.ch
}

// notify wakes all current waiters.
func (n *notifier) notify() {
	n.mu.Lock()
	if n.taken {
		close(n.ch)
		n.ch, n.taken = make(chan struct{}), false
	}
	n.mu.Unlock()
}
