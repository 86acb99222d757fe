package obs

import (
	"math/rand/v2"
	"sync/atomic"
)

// traceBase is a per-process random base XORed with a counter, so IDs are
// unique within a process and collide across processes only by chance.
var (
	traceBase = rand.Uint64()
	traceSeq  atomic.Uint64
)

const hexDigits = "0123456789abcdef"

// TraceID mints a 16-hex-digit request trace ID. IDs are minted once at the
// originating client, carried in the wire protocol's `trace` field, preserved
// when the client retries on the leader a follower redirected it to, and
// stamped on structured server logs — grepping one ID across node logs
// follows a single request through the cluster. Formatted by hand: TraceID
// sits on the per-request hot path of every client and server, and
// fmt.Sprintf("%016x") costs two allocations where this costs one.
func TraceID() string {
	v := traceBase ^ traceSeq.Add(1)
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xF]
		v >>= 4
	}
	return string(b[:])
}
