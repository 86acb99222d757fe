package replica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
	"time"
)

// The step tests drive the protocol core with no sockets, disk or clock.

var xpeers = []Peer{
	{ID: "n1", Priority: 3, ReplAddr: "a1"},
	{ID: "n2", Priority: 2, ReplAddr: "a2"},
	{ID: "n3", Priority: 1, ReplAddr: "a3"},
}

const xelect = 100 * time.Millisecond

// xstate is node i's state, in the view of all three, committing on one
// follower's ack (WriteQuorum 1: a majority of three).
func xstate(i int) state {
	st := newState(xpeers[i], xpeers[0].ReplAddr, xelect, xelect, 1, uint64(i+1))
	st.peers = append([]Peer(nil), xpeers...)
	st.joined = true
	return st
}

func has(out []output, do action) (output, bool) {
	for _, o := range out {
		if o.do == do {
			return o, true
		}
	}
	return output{}, false
}

// TestStepGranterFollowsClaimant: a grant's own outputs end the granter's
// election and send it to the claimant, with no tick in between — a granter
// that waited for its next probe round found the leader it voted for up to
// 1.2 election timeouts late. The grant is persisted before the reply.
func TestStepGranterFollowsClaimant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(st *state)
	}{
		{"electing follower", func(st *state) { st.hunt(nil, xpeers[0]) }},
		{"following the old leader", func(st *state) { st.leader = xpeers[0] }},
		{"leader", func(st *state) { step(st, input{ev: evPromote}, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := xstate(2)
			tc.setup(&st)
			claim := frame{Type: frameClaim, Term: st.term + 1, Peer: xpeers[1], Applied: st.applied, AppliedTerm: st.appliedTerm}
			out := step(&st, input{ev: evFrame, f: claim}, nil)
			reply, ok := has(out, doReply)
			if !ok || !reply.f.Granted {
				t.Fatalf("claim not granted: %+v", out)
			}
			if _, ok := has(out, doFollow); !ok || st.electing || st.role != RoleFollower || st.leader != xpeers[1] {
				t.Fatalf("granter: follow %v, electing %v, role %v, leader %+v; want it following the claimant now", ok, st.electing, st.role, st.leader)
			}
			if p, ok := has(out, doPersist); !ok || p.f.Term != claim.Term {
				t.Fatalf("grant of term %d not persisted: %+v", claim.Term, out)
			}
		})
	}
}

// TestStepClaimCarriesPersistedTerm: a round of claims always leaves in the
// same step as the persist of the term it claims, so the node's rule
// (persist first, discard the step on failure) covers every claim.
func TestStepClaimCarriesPersistedTerm(t *testing.T) {
	st := xstate(1)
	out := st.hunt(nil, xpeers[0])
	for _, o := range out {
		if o.do == doRequest {
			out = step(&st, input{ev: evReply, from: o.to, round: o.round, f: frame{Type: frameStatus, Term: 1}}, nil)
		}
	}
	var claims int
	for _, o := range out {
		if o.do == doRequest && o.f.Type == frameClaim {
			claims++
		}
	}
	p, ok := has(out, doPersist)
	if claims == 0 || !ok || p.f.Term != st.term || st.claim != st.term {
		t.Fatalf("claims %d, persist %+v, term %d: want the claim round and the persist of its term together", claims, p, st.term)
	}
}

// The explorer: three nodes whose every decision is step's, connected by a
// model network the test controls, and a model data path — each node's log
// is a byte per entry, the term of the leadership that wrote it. From a
// steady cluster it runs every interleaving of delivery, drop, tick, client
// write and redial up to a depth, and checks after every action:
//
//  1. at most one leader per term;
//  2. no node's acked index ever decreases (with three nodes one follower's
//     ack makes a majority, so no legal history un-acks an entry);
//  3. a leader of term T holds every entry quorum-acked before T;
//  4. from the frontier, once drops stop, a connected majority elects;
//  5. every commit a leader's step emits is quorum-acked — no longer than the
//     quorum-acked prefix the harness keeps — and never below the last one
//     of its leadership.
//
// Streams are FIFO; dropping any frame of one breaks it. Dropping a request
// or its reply fails the request. Leaders send no idle heartbeats: streams
// never time out here, and the view is fixed.

type xnode struct {
	st     state
	log    []byte // entry terms, index i at log[i-1]
	up     int    // follower: node streamed from (-1: none)
	fols   [3]int // leader: acked index per follower stream (-1: none)
	start  int    // leader: its log's length when its leadership began
	commit uint64 // leader: its step's newest commit this leadership
	maxAck uint64
	force  bool // the next join asks for a snapshot
}

const (
	mReq   = iota + 1 // probe or claim, from -> to
	mReply            // its status, to -> from's asker
	mDown             // leader -> follower on follower to's stream
	mUp               // follower -> leader on follower from's stream
)

type xmsg struct {
	kind     uint8
	from, to int
	f        frame
	round    uint64
}

type xworld struct {
	n         [3]xnode
	msgs      []xmsg
	leaders   [16]int8 // who led each term, plus one (0: nobody)
	committed []byte   // the quorum-acked prefix; replaced, never edited
	later     []input  // stream losses, reported to node later[k].round once the action is done
	drops     int
	ticks     int
	writes    int
	bad       string
}

func (w *xworld) clone() *xworld {
	c := *w
	for i := range c.n {
		c.n[i].st.heard = slices.Clone(w.n[i].st.heard)
		c.n[i].log = slices.Clip(w.n[i].log) // appends copy, never edit the shared array
	}
	c.msgs = slices.Clone(w.msgs)
	c.later = nil
	return &c
}

func (w *xworld) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

func nodeOf(addr string) int {
	for i, p := range xpeers {
		if p.ReplAddr == addr {
			return i
		}
	}
	return -1
}

// step runs one input on node i and carries out its outputs the way the
// node does.
func (w *xworld) step(i int, in input, req *xmsg) {
	nd := &w.n[i]
	for _, o := range step(&nd.st, in, nil) {
		switch o.do {
		case doReply:
			if req.kind == mReq {
				w.msgs = append(w.msgs, xmsg{kind: mReply, from: i, to: req.from, f: o.f, round: req.round})
			} else { // a join's refusal: the connection closes behind it
				w.msgs = append(w.msgs, xmsg{kind: mDown, from: i, to: req.from, f: o.f})
			}
		case doHello:
			// A snapshot is the newest checkpoint — one entry behind the log,
			// but never older than the leadership — and the tail after it.
			j, hello := req.from, o.f
			from := min(req.f.From, uint64(len(nd.log)))
			if hello.Type == frameSnapshot {
				from = uint64(max(nd.start, len(nd.log)-1))
				hello.Records, hello.SnapIndex = slices.Clone(nd.log[:from]), from // the chunks
			}
			hello.Applied = nd.st.applied
			nd.fols[j] = int(from)
			w.msgs = append(w.msgs, xmsg{kind: mDown, from: i, to: j, f: hello})
			if from < uint64(len(nd.log)) {
				w.msgs = append(w.msgs, xmsg{kind: mDown, from: i, to: j, f: frame{Type: frameEntries, Term: nd.st.term,
					Committed: nd.st.committed, Records: slices.Clone(nd.log[from:]), Last: uint64(len(nd.log))}})
			}
		case doRequest:
			w.msgs = append(w.msgs, xmsg{kind: mReq, from: i, to: nodeOf(o.to.ReplAddr), f: o.f, round: o.round})
		case doFollow:
			w.closeStream(i, true)
		case doLead:
			if nd.st.term >= uint64(len(w.leaders)) {
				w.fail("term %d outgrew the explorer", nd.st.term)
				return
			}
			if j := int(w.leaders[nd.st.term]) - 1; j >= 0 && j != i {
				w.fail("invariant 1: n%d and n%d both lead term %d", j+1, i+1, nd.st.term)
			}
			w.leaders[nd.st.term] = int8(i + 1)
			if !bytes.HasPrefix(nd.log, w.committed) {
				w.fail("invariant 3: n%d leads term %d with log %v, missing quorum-acked %v", i+1, nd.st.term, nd.log, w.committed)
			}
			nd.fols, nd.start, nd.commit = [3]int{-1, -1, -1}, len(nd.log), nd.st.committed
			w.closeStream(i, false)
		case doDemote:
			for j := range nd.fols {
				if nd.fols[j] >= 0 {
					w.closeStream(j, true)
				}
			}
		case doDrop:
			w.closeStream(i, true)
		case doCommit:
			if nd.st.role != RoleLeader {
				break
			}
			if c := o.f.Committed; c > uint64(len(w.committed)) || c < nd.commit {
				w.fail("invariant 5: n%d commits %d at term %d after committing %d; quorum-acked %v", i+1, c, nd.st.term, nd.commit, w.committed)
			}
			nd.commit = o.f.Committed
		case doInstall:
			nd.log = slices.Clone(in.f.Records)
			nd.st.applied = in.f.SnapIndex
			w.step(i, input{ev: evApplied, f: in.f}, req)
		case doApply:
			first := in.f.Last - uint64(len(in.f.Records)) + 1
			for k, term := range in.f.Records {
				if idx := first + uint64(k); idx == nd.st.applied+1 {
					nd.log = append(nd.log, term)
					nd.st.applied = idx
				} else if idx > nd.st.applied {
					nd.force = true // a gap: the node re-joins asking for a snapshot
					w.closeStream(i, true)
					return
				}
			}
			w.step(i, input{ev: evApplied, f: in.f}, req)
		case doAck:
			if o.f.Applied < nd.maxAck {
				w.fail("invariant 2: n%d acked %d after acking %d", i+1, o.f.Applied, nd.maxAck)
			}
			nd.maxAck = max(nd.maxAck, o.f.Applied)
			if nd.up >= 0 {
				w.msgs = append(w.msgs, xmsg{kind: mUp, from: i, to: nd.up, f: frame{Type: frameAck, Applied: o.f.Applied}})
			}
		}
	}
}

// closeStream breaks follower j's stream, both ends, and (notify) reports the
// loss to j's core as the node's follow loop does.
func (w *xworld) closeStream(j int, notify bool) {
	l := w.n[j].up
	if l < 0 {
		return
	}
	w.n[j].up = -1
	w.n[l].fols[j] = -1
	w.msgs = slices.DeleteFunc(w.msgs, func(m xmsg) bool {
		return m.kind == mDown && m.to == j || m.kind == mUp && m.from == j
	})
	if notify {
		w.later = append(w.later, input{ev: evDown, from: xpeers[l], round: uint64(j)})
	}
}

// settleLosses reports the stream losses an action caused, as the node's
// follow loop does once the step that caused them is done.
func (w *xworld) settleLosses() {
	for len(w.later) > 0 {
		in := w.later[0]
		w.later = w.later[1:]
		j := int(in.round)
		in.round = 0
		w.step(j, in, nil)
	}
}

// deliverable reports whether msgs[k] is at the head of its stream.
func (w *xworld) deliverable(k int) bool {
	m := w.msgs[k]
	if m.kind == mReq || m.kind == mReply {
		return true
	}
	for _, p := range w.msgs[:k] {
		if p.kind == m.kind && p.from == m.from && p.to == m.to {
			return false
		}
	}
	return true
}

func (w *xworld) deliver(k int) {
	m := w.msgs[k]
	w.msgs = slices.Delete(w.msgs, k, k+1)
	switch m.kind {
	case mReq:
		w.step(m.to, input{ev: evFrame, f: m.f}, &m)
	case mReply:
		w.step(m.to, input{ev: evReply, f: m.f, from: xpeers[m.from], round: m.round}, nil)
	case mUp:
		l := &w.n[m.to]
		if m.f.Type == frameAck && l.fols[m.from] >= 0 {
			// The oracle counts the ack before the leader's step does: with
			// three nodes, one follower's ack is a quorum. The leader steps it
			// stamped with its hello's term, as the node's ack reader does — a
			// live stream's, since demotion closes them all.
			m.f.Term = l.st.term
			if m.f.Applied > uint64(len(l.log)) {
				w.fail("n%d acked %d past its leader n%d's log %v", m.from+1, m.f.Applied, m.to+1, l.log)
				return
			}
			l.fols[m.from] = max(l.fols[m.from], int(m.f.Applied))
			acked := l.log[:m.f.Applied]
			if !bytes.HasPrefix(acked, w.committed) && !bytes.HasPrefix(w.committed, acked) {
				w.fail("quorum-acked logs disagree: %v vs %v", acked, w.committed)
			}
			if len(acked) > len(w.committed) {
				w.committed = slices.Clone(acked)
			}
		}
		w.step(m.to, input{ev: evFrame, f: m.f, from: xpeers[m.from]}, &m)
	case mDown:
		w.step(m.to, input{ev: evFrame, f: m.f}, &m)
		if m.f.Type == frameNotLeader {
			w.closeStream(m.to, false)
		}
	}
}

func (w *xworld) drop(k int) {
	m := w.msgs[k]
	switch m.kind {
	case mReq, mReply:
		w.msgs = slices.Delete(w.msgs, k, k+1)
		asker := m.from
		if m.kind == mReply {
			asker = m.to
		}
		peer := m.to
		if m.kind == mReply {
			peer = m.from
		}
		w.step(asker, input{ev: evDown, from: xpeers[peer], round: m.round}, nil)
	case mDown:
		w.closeStream(m.to, true)
	case mUp:
		w.closeStream(m.from, true)
	}
	w.drops++
}

// dialable reports whether node i would open a stream now: it follows a
// leader it has no stream to.
func (w *xworld) dialable(i int) bool {
	nd := &w.n[i]
	l := nodeOf(nd.st.leader.ReplAddr)
	return nd.up < 0 && nd.st.role == RoleFollower && !nd.st.electing && l >= 0 && l != i
}

func (w *xworld) dial(i int) {
	nd := &w.n[i]
	nd.up = nodeOf(nd.st.leader.ReplAddr)
	w.msgs = append(w.msgs, xmsg{kind: mUp, from: i, to: nd.up, f: nd.st.joinFrame(nd.force)})
	nd.force = false
}

// tick advances node i's clock one election timeout; a leader heartbeats
// its streams.
func (w *xworld) tick(i int) {
	w.ticks++
	nd := &w.n[i]
	w.step(i, input{ev: evTick, now: nd.st.now + xelect}, nil)
	for j, acked := range nd.fols {
		if acked >= 0 && nd.st.role == RoleLeader {
			w.msgs = append(w.msgs, xmsg{kind: mDown, from: i, to: j, f: nd.st.beat()})
		}
	}
}

// write is a client write at leader i: the core's proposal, then the data
// path's append and ship.
func (w *xworld) write(i int) {
	w.writes++
	nd := &w.n[i]
	w.step(i, input{ev: evPropose}, nil)
	if nd.st.role != RoleLeader {
		return
	}
	nd.log = append(nd.log, byte(nd.st.term))
	nd.st.applied = uint64(len(nd.log))
	for j, acked := range nd.fols {
		if acked >= 0 {
			w.msgs = append(w.msgs, xmsg{kind: mDown, from: i, to: j, f: frame{Type: frameEntries, Term: nd.st.term,
				Committed: nd.st.committed, Records: []byte{byte(nd.st.term)}, Last: nd.st.applied}})
		}
	}
}

// settle runs a fair, loss-free schedule — deliver everything, redial, tick
// every node — for up to rounds rounds, and reports whether it reached a
// leader that a majority, itself included, streams from at its term.
func (w *xworld) settle(rounds int) bool {
	for r := 0; r < rounds; r++ {
		for n := 0; len(w.msgs) > 0 && n < 500; n++ {
			for k := range w.msgs {
				if w.deliverable(k) {
					w.deliver(k)
					w.settleLosses()
					break
				}
			}
		}
		for i := range w.n {
			if w.dialable(i) {
				w.dial(i)
			}
		}
		for l := range w.n {
			if w.n[l].st.role != RoleLeader {
				continue
			}
			following := 1
			for j := range w.n {
				if j != l && w.n[j].up == l && w.n[l].fols[j] >= 0 && w.n[j].st.term == w.n[l].st.term && w.n[j].st.leader.ID == xpeers[l].ID {
					following++
				}
			}
			if following >= 2 && len(w.msgs) == 0 {
				return true
			}
		}
		for i := range w.n {
			w.tick(i)
			w.settleLosses()
		}
	}
	return false
}

// key hashes everything that decides the world's future; b is a reused buffer.
func (w *xworld) key(b []byte) (uint64, []byte) {
	b = b[:0]
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	s := func(v string) { b = append(append(b, v...), 0) }
	for i := range w.n {
		nd := &w.n[i]
		st := &nd.st
		u(uint64(st.role))
		u(st.term)
		u(st.applied)
		u(st.appliedTerm)
		u(st.committed)
		s(st.leader.ID)
		s(st.leader.ReplAddr)
		u(uint64(st.now))
		u(uint64(st.leaseRef))
		u(uint64(st.electAt))
		u(st.round)
		u(st.claim)
		u(uint64(st.waiting))
		u(uint64(st.reach))
		u(uint64(st.grants))
		u(st.maxTerm)
		u(st.rnd)
		s(st.dead.ID)
		for _, v := range []bool{st.electing, st.asking, st.behind, st.joined, nd.force} {
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		for _, c := range st.heard {
			s(c.id)
			u(uint64(c.at))
			u(c.acked)
		}
		b = append(append(b, nd.log...), 0xFF)
		u(uint64(nd.up + 1))
		for _, a := range nd.fols {
			u(uint64(a + 1))
		}
		u(uint64(nd.start))
		u(nd.commit)
		u(nd.maxAck)
	}
	for _, m := range w.msgs {
		u(uint64(m.kind))
		u(uint64(m.from))
		u(uint64(m.to))
		u(m.round)
		u(uint64(m.f.Type))
		u(m.f.Term)
		u(m.f.Applied)
		u(m.f.AppliedTerm)
		u(m.f.Committed)
		u(m.f.From)
		u(m.f.Last)
		u(m.f.SnapIndex)
		s(m.f.LeaderRepl)
		b = append(append(b, m.f.Records...), 0xFF)
		if m.f.Granted || m.f.ForceSnapshot {
			b = append(b, 1)
		}
	}
	b = append(append(b, w.committed...), 0xFF)
	for _, l := range w.leaders {
		b = append(b, byte(l))
	}
	u(uint64(w.drops))
	u(uint64(w.ticks))
	u(uint64(w.writes))
	return maphash.Bytes(keySeed, b), b
}

var keySeed = maphash.MakeSeed()

// xaction is one explorer move: what and on which node or message.
type xaction struct {
	what string
	i    int
}

func (w *xworld) actions(drops, ticks, writes int) []xaction {
	var acts []xaction
	for k := range w.msgs {
		if w.deliverable(k) {
			acts = append(acts, xaction{"deliver", k})
			if w.drops < drops {
				acts = append(acts, xaction{"drop", k})
			}
		}
	}
	for i := range w.n {
		if w.ticks < ticks {
			acts = append(acts, xaction{"tick", i})
		}
		if w.writes < writes && w.n[i].st.role == RoleLeader {
			acts = append(acts, xaction{"write", i})
		}
	}
	return acts
}

func (w *xworld) do(a xaction) {
	switch a.what {
	case "deliver":
		w.deliver(a.i)
	case "drop":
		w.drop(a.i)
	case "tick":
		w.tick(a.i)
	case "write":
		w.write(a.i)
	}
	w.settleLosses()
	for i := range w.n {
		if w.dialable(i) {
			w.dial(i)
		}
	}
}

func (w *xworld) describe(a xaction) string {
	if a.what == "deliver" || a.what == "drop" {
		m := w.msgs[a.i]
		kind := map[uint8]string{mReq: "request", mReply: "reply", mDown: "stream", mUp: "stream"}[m.kind]
		return fmt.Sprintf("%s %s n%d->n%d %+v", a.what, kind, m.from+1, m.to+1, frameSummary(m.f))
	}
	return fmt.Sprintf("%s n%d", a.what, a.i+1)
}

func frameSummary(f frame) string {
	names := map[frameType]string{frameJoin: "join", frameProbe: "probe", frameStatus: "status", frameNotLeader: "not-leader",
		frameSnapshot: "snapshot", frameHeartbeat: "heartbeat", frameAck: "ack", frameEntries: "entries", frameClaim: "claim"}
	return fmt.Sprintf("%s{term %d applied %d appliedTerm %d committed %d from %d last %d granted %v records %v}",
		names[f.Type], f.Term, f.Applied, f.AppliedTerm, f.Committed, f.From, f.Last, f.Granted, f.Records)
}

func (w *xworld) summary() string {
	var sb strings.Builder
	for i, nd := range w.n {
		fmt.Fprintf(&sb, "  n%d: %v term %d log %v appliedTerm %d committed %d leader %q up %d acked %v electing %v\n",
			i+1, nd.st.role, nd.st.term, nd.log, nd.st.appliedTerm, nd.st.committed, nd.st.leader.ID, nd.up+1, nd.maxAck, nd.st.electing)
	}
	fmt.Fprintf(&sb, "  quorum-acked %v\n", w.committed)
	return sb.String()
}

// steady builds the explorer's start: n1 leads term 1, n2 and n3 stream from
// it, and one entry is quorum-acked.
func steady(t *testing.T) *xworld {
	w := &xworld{}
	for i := range w.n {
		w.n[i] = xnode{st: xstate(i), up: -1, fols: [3]int{-1, -1, -1}}
	}
	w.step(0, input{ev: evPromote}, nil)
	w.write(0)
	w.settleLosses()
	if !w.settle(3) || len(w.committed) != 1 || w.bad != "" {
		t.Fatalf("no steady start:\n%s%s", w.summary(), w.bad)
	}
	w.drops, w.ticks, w.writes = 0, 0, 0
	return w
}

// trailing builds the explorer's second start: as steady, but n3's ack of
// the entry is still in flight, so once n1 writes again it acks less than
// n1's log holds — where the commit rule and the count of acks part, which
// the first start never reaches within its depth.
func trailing(t *testing.T) *xworld {
	w := &xworld{}
	for i := range w.n {
		w.n[i] = xnode{st: xstate(i), up: -1, fols: [3]int{-1, -1, -1}}
	}
	w.step(0, input{ev: evPromote}, nil)
	w.settleLosses()
	if !w.settle(3) || w.bad != "" {
		t.Fatalf("no trailing start:\n%s%s", w.summary(), w.bad)
	}
	w.write(0)
	for k := 0; k < len(w.msgs); k++ {
		if m := w.msgs[k]; !(m.kind == mUp && m.from == 2) && w.deliverable(k) {
			w.deliver(k)
			k = -1
		}
	}
	if len(w.committed) != 1 || len(w.msgs) != 1 || w.bad != "" {
		t.Fatalf("no trailing start:\n%s%s", w.summary(), w.bad)
	}
	w.drops, w.ticks, w.writes = 0, 0, 0
	return w
}

// exploreDepth is the explorer's depth: safety is checked on every state
// it reaches, liveness from every state at least two actions short of it.
// A race-detector build (race_test.go) explores less deep to stay in time.
var exploreDepth = 9

type explorer struct {
	depth, drops, ticks, writes int
	seen                        map[uint64]int // state -> most depth left it was explored with
	states, settles             int
	buf                         []byte
}

func (e *explorer) run(t *testing.T, w *xworld, left int, path []xaction, worlds []*xworld) {
	var k uint64
	k, e.buf = w.key(e.buf)
	if l, ok := e.seen[k]; ok && l >= left && w.bad == "" {
		return
	}
	e.seen[k] = left
	if w.bad == "" && left >= 2 {
		e.settles++
		if !w.clone().settle(40) {
			w.bad = "invariant 4: a connected majority did not elect within 40 rounds"
		}
	}
	if w.bad != "" {
		var sb strings.Builder
		for k, a := range path {
			fmt.Fprintf(&sb, "  %2d. %s\n", k+1, worlds[k].describe(a))
		}
		t.Fatalf("%s\ncounter-example (%d actions):\n%sstate:\n%s", w.bad, len(path), sb.String(), w.summary())
	}
	if left == 0 {
		return
	}
	e.states++
	for _, a := range w.actions(e.drops, e.ticks, e.writes) {
		next := w.clone()
		next.do(a)
		e.run(t, next, left-1, append(path, a), append(worlds, w))
	}
}

// TestExploreElections runs the explorer from a steady three-node cluster,
// then — three actions shallower — from the trailing-ack start.
func TestExploreElections(t *testing.T) {
	for _, s := range []struct {
		name  string
		start func(*testing.T) *xworld
		depth int
	}{
		{"steady", steady, exploreDepth},
		{"trailing ack", trailing, exploreDepth - 3},
	} {
		e := &explorer{depth: s.depth, drops: 2, ticks: 3, writes: 1, seen: map[uint64]int{}}
		start := time.Now()
		e.run(t, s.start(t), e.depth, nil, nil)
		t.Logf("%s start, depth %d (≤ %d drops, %d ticks, %d writes): %d states expanded, liveness settled from %d, %v",
			s.name, e.depth, e.drops, e.ticks, e.writes, e.states, e.settles, time.Since(start).Round(time.Millisecond))
	}
}
