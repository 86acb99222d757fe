package wait

import (
	"errors"
	"sync"
	"time"
)

// Signal is a broadcast wake-up: Wait returns the channel the next Wake
// closes. The zero value is ready to use, and a Signal guards itself, so Wait
// and Wake need none of the caller's locks.
//
// No waiter, no channel: Wake closes the channel and makes the next one only
// when a Wait has taken it since the last Wake, so a Wake nobody waits on
// allocates nothing — a follower, which parks no long poll, commits without
// making channels nobody waits on. A Wake is not remembered: a waiter takes
// the channel before it checks the state the Wake reports on, or checks it
// under the lock that state changes under, as For does.
type Signal struct {
	mu    sync.Mutex
	ch    chan struct{}
	taken bool // a Wait returned ch since it was made
}

// Wait returns a channel closed at the next Wake.
func (s *Signal) Wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	s.taken = true
	return s.ch
}

// Wake releases everyone parked on a channel Wait returned.
func (s *Signal) Wake() {
	s.mu.Lock()
	if s.taken {
		close(s.ch)
		s.ch, s.taken = make(chan struct{}), false
	}
	s.mu.Unlock()
}

// Waiting reports whether a Wait has taken the channel the next Wake
// closes, that is, whether anyone may be parked on s.
func (s *Signal) Waiting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taken
}

// ErrTimeout is For's timeout, which each caller words for its own.
var ErrTimeout = errors.New("wait: timed out")

// For waits until ready reports true or fails with its error, or timeout
// passes (ErrTimeout); timeout <= 0 checks once. It is called with l held and
// returns with l held, releasing l only while it is parked. ready runs under
// l, and For takes s's channel in that same critical section, so a wake
// cannot be missed as long as whatever ready reads changes under l and is
// followed by s.Wake(). An owner that closes sets its closed state that way
// too, and ready reports it as an error.
func For(l sync.Locker, s *Signal, timeout time.Duration, ready func() (bool, error)) error {
	var t *time.Timer
	defer func() {
		if t != nil {
			Release(t)
		}
	}()
	for {
		if ok, err := ready(); ok || err != nil {
			return err
		}
		if timeout <= 0 {
			return ErrTimeout
		}
		ch := s.Wait()
		l.Unlock()
		if t == nil {
			t = Timer(timeout)
		}
		select {
		case <-ch:
			l.Lock()
		case <-t.C:
			l.Lock()
			return ErrTimeout
		}
	}
}
