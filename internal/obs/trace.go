package obs

import (
	"math/rand/v2"
	"strings"
	"sync"
)

// traceBase is a per-process random base XORed with a counter, so IDs are
// unique within a process and collide across processes only by chance. IDs
// are minted traceBatch at a time into one string and handed out as its
// 16-byte substrings.
var (
	traceBase = rand.Uint64()
	traces    struct {
		sync.Mutex
		seq   uint64 // counter of the last ID minted
		batch string // IDs minted but not yet handed out
	}
)

const (
	traceBatch = 256
	hexDigits  = "0123456789abcdef"
)

// TraceID mints a 16-hex-digit request trace ID. IDs are minted once at the
// originating client, carried in the wire protocol's `trace` field, preserved
// when the client retries on the leader a follower redirected it to, and
// stamped on structured server logs — grepping one ID across node logs
// follows a single request through the cluster. TraceID sits on the
// per-request hot path of every client and server, so it allocates once per
// traceBatch IDs; an ID kept alive keeps its batch's 4 KB alive with it.
func TraceID() string {
	traces.Lock()
	defer traces.Unlock()
	if traces.batch == "" {
		var b strings.Builder
		b.Grow(16 * traceBatch)
		var id [16]byte
		for range traceBatch {
			traces.seq++
			v := traceBase ^ traces.seq
			for i := 15; i >= 0; i-- {
				id[i] = hexDigits[v&0xF]
				v >>= 4
			}
			b.Write(id[:])
		}
		traces.batch = b.String()
	}
	id := traces.batch[:16]
	traces.batch = traces.batch[16:]
	return id
}
