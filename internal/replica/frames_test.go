package replica

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"osprey/internal/obs"
)

// framesSent sums osprey_replica_frames_sent_total over nodes, by type label.
func framesSent(nodes []*Node) (byType map[string]float64, total float64) {
	byType = map[string]float64{}
	const name = "osprey_replica_frames_sent_total"
	for _, n := range nodes {
		for k, v := range obs.Flatten(n.db.Metrics().Gather()) {
			if strings.HasPrefix(k, name+"{") {
				byType[strings.TrimPrefix(k, name)] += v
				total += v
			}
		}
	}
	return byType, total
}

// TestFramesSentPerQuorumSubmit reads osprey_replica_frames_sent_total on a
// 3-node WriteQuorum-1 cluster across serial quorum submits — each a Submit
// and its WaitQuorumIndex, as the service runs one — and logs the frames the
// three nodes sent per submit, by type: the count ROADMAP's quiet-link
// direction (T) measures itself against. Timer heartbeats are slowed so that
// what is counted is what the submits cause. It pins what must hold: every
// submit reached a follower as an entries frame and drew an ack.
func TestFramesSentPerQuorumSubmit(t *testing.T) {
	const slow = 500 * time.Millisecond
	nodes := make([]*Node, 3)
	for i := range nodes {
		cfg := Config{
			ID: fmt.Sprintf("fs%d", i+1), Priority: 3 - i,
			Heartbeat: slow, ElectionTimeout: 10 * slow, WriteQuorum: 1,
			Logf: t.Logf,
		}
		if i > 0 {
			cfg.Join = nodes[0].Addr()
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.SetServiceAddr("svc-" + cfg.ID)
		n.Start()
		nodes[i] = n
	}
	leader := nodes[0]
	submitN(t, leader.DB(), 1)
	waitFor(t, "both followers caught up", func() bool {
		return nodes[1].Applied() == leader.Applied() && nodes[2].Applied() == leader.Applied()
	})

	const submits = 100
	before, total0 := framesSent(nodes)
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < submits; i++ {
		res, err := leader.DB().Submit(ctx, "exp", 1, "payload")
		if err != nil {
			t.Fatal(err)
		}
		if err := leader.WaitQuorumIndex(res.Token); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	after, total1 := framesSent(nodes)
	per := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			per[k] = d / submits
		}
	}
	t.Logf("%d serial quorum submits in %v: %.2f replication frames per submit, by type %v",
		submits, elapsed.Round(time.Millisecond), (total1-total0)/submits, per)
	if per[`{type="entries"}`] < 1 || per[`{type="ack"}`] < 1 {
		t.Fatalf("per submit: %v; want at least one entries frame and one ack", per)
	}
}

// TestFrameWriterCountsWithoutAllocating: counting a frame costs an atomic
// add on a counter made when the node was, nothing per frame.
func TestFrameWriterCountsWithoutAllocating(t *testing.T) {
	m := newNodeMetrics(obs.NewRegistry())
	w := frameWriter{w: io.Discard, sent: &m.framesSent}
	f := &frame{Type: frameHeartbeat, Term: 3, Applied: 7}
	w.write(f)
	if got := testing.AllocsPerRun(100, func() { w.write(f) }); got != 0 {
		t.Fatalf("frameWriter.write: %.0f allocs per frame, want 0", got)
	}
	if got := m.framesSent[frameHeartbeat].Value(); got != 102 {
		t.Fatalf("heartbeats counted = %d, want 102", got)
	}
}
