package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// gen is the seeded input generator. Every input the program receives —
// payloads, priorities, the ids picked for reprioritisation — comes from a
// gen, and a gen is a pure function of (seed, stream): the same seed gives
// the same inputs. Streams keep the consumers (ME loop 0, ME loop 1, the
// probe, the deep-queue driver) independent of each other's draw counts.
type gen struct{ r *rand.Rand }

func newGen(seed int64, stream int) *gen {
	return &gen{r: rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))}
}

// payload returns a ~64-byte JSON task payload, the size of the paper's
// parameter-vector tasks.
func (g *gen) payload() string {
	return fmt.Sprintf(`{"x":[%.6f,%.6f,%.6f,%.6f],"rep":%08d}`,
		g.r.Float64(), g.r.Float64(), g.r.Float64(), g.r.Float64(), g.r.Intn(100_000_000))
}

// priority returns a priority in [0, max).
func (g *gen) priority(max int) int { return g.r.Intn(max) }

// pick fills dst with len(dst) distinct indexes in [0, n), n >= len(dst).
// seen is caller-owned scratch, empty on entry.
func (g *gen) pick(n int, dst []int, seen map[int]bool) {
	for i := range dst {
		for {
			v := g.r.Intn(n)
			if !seen[v] {
				seen[v] = true
				dst[i] = v
				break
			}
		}
	}
}

// checksum is the zero-work task function: the result of a task is the
// FNV-1a hash of its payload, so the ME side can check every result it pops
// against the payload it submitted.
func checksum(payload string) string {
	h := fnv.New64a()
	h.Write([]byte(payload))
	return strconv.FormatUint(h.Sum64(), 16)
}

// batches is a ring of pre-generated submit batches with their expected
// results, built during set-up so the measured loop draws no random numbers
// and allocates no payloads of its own.
type batches struct {
	payloads   [][]string
	priorities [][]int
	sums       [][]string
}

func newBatches(g *gen, ring, size, maxPrio int) *batches {
	b := &batches{
		payloads:   make([][]string, ring),
		priorities: make([][]int, ring),
		sums:       make([][]string, ring),
	}
	for i := 0; i < ring; i++ {
		b.payloads[i] = make([]string, size)
		b.priorities[i] = make([]int, size)
		b.sums[i] = make([]string, size)
		for j := 0; j < size; j++ {
			p := g.payload()
			b.payloads[i][j] = p
			b.priorities[i][j] = g.priority(maxPrio)
			b.sums[i][j] = checksum(p)
		}
	}
	return b
}

// at returns batch k of the ring (k may exceed the ring size).
func (b *batches) at(k int) (payloads []string, priorities []int, sums []string) {
	i := k % len(b.payloads)
	return b.payloads[i], b.priorities[i], b.sums[i]
}
