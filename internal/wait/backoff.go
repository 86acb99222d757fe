package wait

import (
	"context"
	"math/rand/v2"
	"time"
)

// Backoff bounds: a retry's window starts at the base and doubles to the cap.
// Early retries stay fast (a lost connection usually has a live leader one
// dial away, a shed request a free slot a few ms off); later ones back off so
// a leaderless or saturated cluster is not hammered.
const (
	backoffBase = 5 * time.Millisecond
	backoffCap  = 250 * time.Millisecond
)

// Backoff is the one retry schedule, full jitter (Brooker, "Exponential
// Backoff and Jitter", 2015): each Wait sleeps a uniform draw from
// (0, window], so the many callers that fail together (a leader's death, a
// burst of shed requests) do not retry together. The zero value is ready to
// use; Reset starts the schedule over.
type Backoff struct{ window time.Duration }

// Wait sleeps the next step of the schedule, or until ctx is done if that
// comes first; it reports whether the whole step passed.
func (b *Backoff) Wait(ctx context.Context) bool {
	b.window = min(max(2*b.window, backoffBase), backoffCap)
	t := Timer(rand.N(b.window) + 1)
	defer Release(t)
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Reset starts the schedule over at its base.
func (b *Backoff) Reset() { b.window = 0 }
