package replica

import (
	"fmt"
	"time"
)

// state is what step decides over: term, vote, role, view, log position and
// commit watermark, plus the election in progress. Nothing outside step.go
// assigns its decision fields; the node writes only applied (its data path's
// fact) and reads the rest. peers is replaced, never edited in place, so
// copying a state is a snapshot of it — the node's way of discarding a step.
// heard is the exception: it is evidence of contact and acks, edited in
// place, and a discarded step keeps what it recorded there.
type state struct {
	self   Peer
	join   string        // where a node that never joined knocks
	elect  time.Duration // ElectionTimeout: rank slot, retry backoff
	lease  time.Duration // LeaseTimeout
	quorum int           // WriteQuorum: follower acks that commit an index (0: asynchronous)

	role        Role
	term        uint64
	applied     uint64 // last applied (follower) / committed (leader) index
	appliedTerm uint64 // term of the leadership that produced the newest applied entry
	// committed is the commit watermark: on a leader the highest index that
	// quorum followers' acks in this leadership reach, on a follower the
	// newest its leader shipped.
	committed uint64
	leader    Peer   // the leader followed (self when leading); zero when unknown
	peers     []Peer // ranked membership, self included
	joined    bool   // part of the cluster (leads, installed its snapshot or recovered its view): may elect
	now       time.Duration
	heard     []contact     // leader: last ack, join or probe from each member, and its ack
	leaseRef  time.Duration // no lease demotion before this
	// standDownUntil keeps a node that stepped down out of the election it
	// triggered, which it would often win straight back.
	standDownUntil time.Duration

	electing bool // no leader to follow: probing, and standing once electAt passes
	dead     Peer // the leader whose loss started the election
	electAt  time.Duration
	asking   bool   // a request round is out
	round    uint64 // id of the newest round; replies to older ones are ignored
	roundAt  time.Duration
	claim    uint64 // term the round out claims (0: a probe round)
	waiting  int    // replies the round still waits for
	reach    int    // members that answered, self included
	grants   int    // grants for claim, self included
	behind   bool   // someone answered with a newer log
	maxTerm  uint64
	rnd      uint64 // xorshift state behind jitter
}

// event says what an input is.
type event uint8

const (
	evFrame    event = iota + 1 // f arrived: a request on an inbound connection, or a frame on the stream
	evReply                     // f answers this node's request of round `round`, sent to from
	evDown                      // the request of round `round` to from failed; round 0: the stream to from ended
	evApplied                   // the node installed or applied the stream frame f
	evPropose                   // the commit hook asks to log a local write
	evTick                      // the clock reads now
	evPromote                   // the operator (or a bootstrap leader) takes leadership
	evStepDown                  // the operator hands leadership off
)

type input struct {
	ev    event
	f     frame
	from  Peer // evReply/evDown: who was asked; an ack: the follower
	round uint64
	now   time.Duration
}

// action says what an output asks the node to do.
type action uint8

const (
	doPersist action = iota + 1 // write f.Term, f.AppliedTerm and (view) the view f.Peers first
	doReply                     // answer the inbound request with f
	doHello                     // answer a join as leader with f: a heartbeat allows a resume
	doRequest                   // send f to `to` as part of round `round`, and step its reply
	doInstall                   // install the snapshot the hello begins, then step evApplied
	doApply                     // apply the stream's entries frame, then step evApplied
	doAck                       // ack f.Applied on the stream
	doCommit                    // release what the watermark f.Committed covers (on a leader: it rose)
	doDrop                      // end the stream: why
	doFollow                    // the leader to stream from changed: drop the stream and dial anew
	doLead                      // leadership began
	doDemote                    // leadership ended: why
	doLog                       // log why
)

type output struct {
	do    action
	f     frame
	to    Peer
	round uint64
	view  bool
	why   string
}

func newState(self Peer, join string, elect, lease time.Duration, quorum int, seed uint64) state {
	return state{
		self: self, join: join, elect: elect, lease: lease, quorum: quorum, role: RoleFollower,
		leader: Peer{ReplAddr: join}, peers: []Peer{self},
		rnd: seed | 1,
	}
}

// restore resumes what a durable node recovered from disk. A follower adopts
// a recovered view of more than one member and may elect at once (a fully
// restarted cluster has no leader to find, only one to elect); electing from
// a one-node view would claim leadership of a one-node world.
func (st *state) restore(term, appliedTerm, applied uint64, peers []Peer) {
	st.term, st.appliedTerm, st.applied = term, appliedTerm, applied
	if len(peers) > 1 && st.join != "" {
		st.peers, st.joined = withPeer(peers, st.self), true
	}
}

// setSelf records this node's own (service) address.
func (st *state) setSelf(p Peer) {
	if st.leader.ID == st.self.ID && st.role == RoleLeader {
		st.leader = p
	}
	st.self, st.peers = p, withPeer(st.peers, p)
}

// step applies one input to st and appends what the node must do to out.
// Whenever term, appliedTerm, leader or membership changed, the last output
// is doPersist: the node writes it before acting on any other output and
// discards the whole step (st included) if the write fails.
func step(st *state, in input, out []output) []output {
	term, appliedTerm, leader, peers := st.term, st.appliedTerm, st.leader, st.peers
	out = st.on(in, out)
	view := st.leader != leader || !samePeers(st.peers, peers)
	if view || st.term != term || st.appliedTerm != appliedTerm {
		out = append(out, output{do: doPersist, view: view, to: st.leader,
			f: frame{Term: st.term, AppliedTerm: st.appliedTerm, Peers: st.peers}})
	}
	return out
}

func (st *state) on(in input, out []output) []output {
	f := &in.f
	switch in.ev {
	case evTick:
		st.now = in.now
		switch {
		case st.role == RoleLeader:
			if st.now >= st.leaseRef && !st.inContact() {
				out = st.stepDown(out, "no ack or probe from a majority of peers within the lease window")
				return st.hunt(out, Peer{})
			}
		case st.asking && st.now >= st.roundAt+2*st.elect:
			st.waiting = 0 // replies still out count as unreachable
			return st.conclude(out)
		case st.electing && !st.asking:
			return st.campaign(out)
		}
	case evPropose:
		// The entry being appended belongs to this leadership.
		if st.role == RoleLeader {
			st.appliedTerm = st.term
		}
	case evPromote:
		if st.role != RoleLeader {
			st.term++
			return st.lead(out)
		}
	case evStepDown:
		if st.role == RoleLeader && len(st.peers) > 1 {
			st.standDownUntil = st.now + 4*st.elect
			out = st.stepDown(out, "drain: operator-requested handoff")
			return st.hunt(out, Peer{})
		}
	case evReply, evDown:
		if in.round == 0 {
			// The stream ended. A stale report (the node has since moved on to
			// another leader, or leads) changes nothing.
			if st.role == RoleLeader || st.electing || in.from.ReplAddr != st.leader.ReplAddr {
				return out
			}
			return st.hunt(out, st.leader)
		}
		return st.answer(in, out)
	case evApplied:
		if f.Type == frameSnapshot {
			// The snapshot is a byte copy of the term-f.Term leader's state:
			// prefix identity with its log is established wholesale. The
			// watermark starts again from the one the hello carries.
			st.appliedTerm, st.joined, st.committed = f.Term, true, 0
		}
		// A node that has granted a newer term since must not ack the old
		// leadership: that ack could complete a quorum the new leader lacks.
		if st.streaming(f.Term) {
			return st.acknowledge(f.Committed, out)
		}
	case evFrame:
		return st.receive(f, in.from, out)
	}
	return out
}

// receive handles a frame: a request on an inbound connection, a frame on
// the stream from the leader, or (leader side) a follower's ack.
func (st *state) receive(f *frame, from Peer, out []output) []output {
	switch f.Type {
	case frameAck:
		// An ack counts only toward the leadership whose stream carried it:
		// the node stamps it with the term of that stream's hello.
		if st.role == RoleLeader && f.Term == st.term {
			if c := st.touch(from.ID); c != nil && f.Applied > c.acked {
				c.acked = f.Applied
				if q := st.quorumAck(); q > st.committed {
					st.committed = q
					return append(out, output{do: doCommit, f: frame{Committed: q}})
				}
			}
		}
	case frameProbe:
		// A probe is contact: it counts toward the majority lease like an ack.
		st.touch(f.Peer.ID)
		return append(out, output{do: doReply, f: st.status(false)})
	case frameClaim:
		// The vote. A claim above this node's term from a log at least as new
		// as its own is granted: the term is adopted (a leader steps down),
		// the claimant joins the view, and this node follows it at once.
		// Refusing leaves the term free for a better candidate.
		st.touch(f.Peer.ID)
		grant := f.Term > st.term && !logAhead(st.appliedTerm, st.applied, f.AppliedTerm, f.Applied)
		if grant {
			st.term = f.Term
			out = st.stepDown(out, fmt.Sprintf("deposed: granted leadership claim for term %d by %s", f.Term, f.Peer.ID))
			if !hasPeer(st.peers, f.Peer.ID) {
				st.peers = withPeer(st.peers, f.Peer)
			}
			out = append(out, output{do: doLog, why: fmt.Sprintf("granted leadership claim for term %d to %s", f.Term, f.Peer.ID)})
			out = st.follow(out, f.Peer)
		}
		return append(out, output{do: doReply, f: st.status(grant)})
	case frameJoin:
		return st.admit(f, out)
	case frameNotLeader:
		if st.role == RoleLeader || st.electing {
			return out
		}
		if f.LeaderRepl != "" && f.LeaderRepl != st.self.ReplAddr {
			return st.follow(out, Peer{ID: f.LeaderID, ReplAddr: f.LeaderRepl, SvcAddr: f.LeaderSvc})
		}
		return st.hunt(out, st.leader)
	case frameHeartbeat, frameSnapshot:
		// A frame below this node's term is a deposed leader that does not
		// know it yet: applying — worse, acking — its entries would count this
		// node toward a quorum of a leadership the cluster has voted past.
		if st.role == RoleLeader || f.Term < st.term || f.Role != RoleLeader {
			return append(out, output{do: doDrop, why: fmt.Sprintf("replica: %v frame of term %d at term %d", f.Role, f.Term, st.term)})
		}
		st.term, st.electing, st.asking, st.dead = f.Term, false, false, Peer{}
		st.leader = Peer{ID: f.LeaderID, ReplAddr: f.LeaderRepl, SvcAddr: f.LeaderSvc}
		for _, p := range f.Peers {
			if p.ID == f.LeaderID && p.ID != "" {
				st.leader = p // the full entry: the advertised address may differ
			}
		}
		if !sameView(st.peers, f.Peers, st.self) {
			st.peers = withPeer(f.Peers, st.self)
		}
		if f.Type == frameSnapshot {
			return append(out, output{do: doInstall})
		}
		return st.acknowledge(f.Committed, out)
	case frameEntries:
		if !st.streaming(f.Term) {
			return append(out, output{do: doDrop, why: fmt.Sprintf("replica: entries of term %d from a leader not followed at term %d", f.Term, st.term)})
		}
		// A leader's hello already tied this log to its term, so this only
		// moves under a leader that skipped it; it never moves to a term the
		// node does not stream from.
		st.appliedTerm = f.Term
		return append(out, output{do: doApply})
	}
	return out
}

// admit answers a join. A joiner above this leader's term means the cluster
// voted past it: adopt the term and step down. A non-leader redirects. The
// leader takes the joiner into its view — membership is every peer a leader
// ever admitted — and answers with a hello that allows an incremental resume
// only when the joiner's term and the term of its newest entry are both this
// leadership's: any other tail may be a deposed leader's divergent one, and
// only a snapshot makes it this leader's.
func (st *state) admit(f *frame, out []output) []output {
	if st.role == RoleLeader && f.Term > st.term {
		st.term = f.Term
		out = st.stepDown(out, fmt.Sprintf("superseded: join from %s carries term %d", f.Peer.ID, f.Term))
		out = append(out, output{do: doReply, f: frame{Type: frameNotLeader, Term: st.term}})
		return st.hunt(out, Peer{})
	}
	if st.role != RoleLeader {
		r := frame{Type: frameNotLeader, Term: st.term, LeaderID: st.leader.ID, LeaderRepl: st.leader.ReplAddr, LeaderSvc: st.leader.SvcAddr}
		if st.leader.ID == f.Peer.ID {
			// The joiner's own stale leadership: don't send it chasing itself.
			r.LeaderID, r.LeaderRepl, r.LeaderSvc = "", "", ""
		}
		return append(out, output{do: doReply, f: r})
	}
	if i := peerIndex(st.peers, f.Peer.ID); i < 0 || st.peers[i] != f.Peer {
		st.peers = withPeer(st.peers, f.Peer)
	}
	st.touch(f.Peer.ID)
	hello := st.beat()
	hello.Type = frameSnapshot
	if f.Term == st.term && f.AppliedTerm == st.term && !f.ForceSnapshot {
		hello.Type = frameHeartbeat
	}
	return append(out, output{do: doHello, f: hello})
}

// answer counts one reply (or failure) of the round out. A reachable leader
// ends the election, and so does a hint naming a leader other than the lost
// one; a majority of grants promotes.
func (st *state) answer(in input, out []output) []output {
	if !st.asking || in.round != st.round {
		return out
	}
	st.waiting--
	if f := &in.f; in.ev == evReply {
		st.reach++
		st.maxTerm = max(st.maxTerm, f.Term)
		if logAhead(f.AppliedTerm, f.Applied, st.appliedTerm, st.applied) {
			st.behind = true
		}
		switch {
		case st.claim != 0 && f.Granted:
			if st.grants++; st.grants >= len(st.peers)/2+1 {
				return st.lead(out)
			}
		case f.Role == RoleLeader && f.Term >= st.claim:
			// Followed even below this node's term (it may have granted a
			// candidate that then died): the join carries the higher term,
			// which deposes the leader and forces the election that heals.
			return st.follow(out, in.from)
		case st.claim == 0 && f.LeaderRepl != "" && f.LeaderRepl != st.dead.ReplAddr &&
			f.LeaderRepl != in.from.ReplAddr && f.LeaderRepl != st.self.ReplAddr:
			return st.follow(out, Peer{ID: f.LeaderID, ReplAddr: f.LeaderRepl, SvcAddr: f.LeaderSvc})
		}
	}
	if st.waiting > 0 {
		return out
	}
	return st.conclude(out)
}

// conclude ends a round that found no leader. A probe round past this node's
// rank wait is the pre-vote: with a majority reachable and nobody's log newer
// it claims the next term; otherwise the node retries an election timeout
// later. The claim's majority is over the whole view, the lost leader
// included: it still counts, competes on log position and may be back.
func (st *state) conclude(out []output) []output {
	st.asking = false
	majority := len(st.peers)/2 + 1
	switch {
	case st.claim != 0 && st.grants >= majority:
		return st.lead(out)
	case st.claim != 0:
		out = append(out, output{do: doLog, why: fmt.Sprintf("leadership claim for term %d denied: %d/%d grants (majority %d)",
			st.claim, st.grants, len(st.peers), majority)})
	case st.now < st.electAt:
		return out // still waiting its rank: the round only looked for a leader
	case st.reach >= majority && !st.behind:
		// The claim is this node's own vote: the term reaches disk before
		// any claim leaves, and is never claimed twice.
		st.term = max(st.maxTerm, st.term) + 1
		out = st.ask(out, frame{Type: frameClaim, Term: st.term, Peer: st.self, Applied: st.applied, AppliedTerm: st.appliedTerm})
		st.claim, st.grants = st.term, 1
		if st.waiting == 0 { // a view of one: its own vote is the majority
			return st.lead(out)
		}
		return out
	default:
		out = append(out, output{do: doLog, why: fmt.Sprintf("election stalled: %d/%d reachable (majority %d), behind=%v",
			st.reach, len(st.peers), majority, st.behind)})
	}
	st.electAt = st.now + st.jitter(st.elect)
	return out
}

// hunt starts looking for a leader after losing dead (zero: after stepping
// down). A node that never joined knocks on its join address again. One that
// did elects: every node ranks the view without the lost leader the same way
// (priority desc, ID asc) and waits its rank's share of election timeouts —
// probing for a leader meanwhile — before it may stand.
func (st *state) hunt(out []output, dead Peer) []output {
	if !st.joined {
		st.leader = Peer{ReplAddr: st.join}
		return out
	}
	cands := make([]Peer, 0, len(st.peers))
	for _, p := range st.peers {
		if p.ID != dead.ID && p.ReplAddr != dead.ReplAddr {
			cands = append(cands, p)
		}
	}
	rank := promotionRank(cands, st.self.ID)
	st.electing, st.dead, st.asking = true, dead, false
	st.electAt = max(st.now, st.standDownUntil) + st.jitter(time.Duration(rank)*st.elect)
	if rank > 0 {
		out = append(out, output{do: doLog, why: fmt.Sprintf("leader %s lost; rank %d of %d in election", dead.ID, rank, len(cands))})
	}
	return st.campaign(out)
}

// campaign probes the whole view for a leader and the pre-vote.
func (st *state) campaign(out []output) []output {
	st.claim = 0
	if out = st.ask(out, frame{Type: frameProbe, Peer: st.self}); st.waiting == 0 {
		return st.conclude(out)
	}
	return out
}

// ask opens a new round: f to every other member.
func (st *state) ask(out []output, f frame) []output {
	st.round++
	st.asking, st.roundAt, st.waiting, st.reach, st.behind, st.maxTerm = true, st.now, 0, 1, false, st.term
	for _, p := range st.peers {
		if p.ID != st.self.ID {
			st.waiting++
			out = append(out, output{do: doRequest, to: p, round: st.round, f: f})
		}
	}
	return out
}

func (st *state) follow(out []output, p Peer) []output {
	st.electing, st.asking, st.leader = false, false, p
	return append(out, output{do: doFollow})
}

// lead promotes. The lease starts with a grace period: surviving followers
// need their own failure detection and election backoff before they rejoin.
// No ack of an earlier leadership counts in this one, and the watermark
// starts at the one last shipped to this node, never past its log: the
// entries after it are committed once acked, like new ones.
func (st *state) lead(out []output) []output {
	st.role, st.leader, st.joined, st.electing, st.asking = RoleLeader, st.self, true, false, false
	for i := range st.heard {
		st.heard[i].acked = 0
	}
	for _, p := range st.peers {
		st.touch(p.ID)
	}
	st.committed = min(st.committed, st.applied)
	st.leaseRef = st.now + 2*st.lease
	return append(out, output{do: doLead})
}

func (st *state) stepDown(out []output, why string) []output {
	if st.role != RoleLeader {
		return out
	}
	st.role, st.leader = RoleFollower, Peer{}
	return append(out, output{do: doDemote, why: why})
}

// inContact reports whether a majority of the view, self included, was heard
// from within the lease window.
func (st *state) inContact() bool {
	n := 1
	for _, c := range st.heard {
		if c.id != st.self.ID && hasPeer(st.peers, c.id) && st.now-c.at <= st.lease {
			n++
		}
	}
	return n >= len(st.peers)/2+1
}

// contact is when a member was last heard from and, on a leader, the
// highest index it acked in this leadership.
type contact struct {
	id    string
	at    time.Duration
	acked uint64
}

// touch records contact with member id and returns its entry; others are
// not tracked (nil).
func (st *state) touch(id string) *contact {
	for i := range st.heard {
		if st.heard[i].id == id {
			st.heard[i].at = st.now
			return &st.heard[i]
		}
	}
	if !hasPeer(st.peers, id) {
		return nil
	}
	st.heard = append(st.heard, contact{id: id, at: st.now})
	return &st.heard[len(st.heard)-1]
}

// quorumAck is the highest index that at least quorum members' acks reach —
// the quorum-th highest ack; 0 in asynchronous mode, where no ack commits.
// It counts in place over the few members a view has: an ack allocates
// nothing.
func (st *state) quorumAck() uint64 {
	var c uint64
	if st.quorum <= 0 {
		return 0
	}
	for _, a := range st.heard {
		if a.acked <= c {
			continue
		}
		reach := 0
		for _, b := range st.heard {
			if b.acked >= a.acked {
				reach++
			}
		}
		if reach >= st.quorum {
			c = a.acked
		}
	}
	return c
}

// acknowledge is a follower's answer to each frame it takes from its leader:
// adopt the watermark the frame carries, release what the watermark covers —
// every frame, as the node's own may be past the leader's and not yet
// released — and ack.
func (st *state) acknowledge(c uint64, out []output) []output {
	st.committed = max(st.committed, c)
	return append(out, output{do: doCommit, f: frame{Committed: st.committed}}, output{do: doAck, f: frame{Applied: st.applied}})
}

// streaming reports whether frames of term come from the leader this node
// follows now.
func (st *state) streaming(term uint64) bool {
	return st.role == RoleFollower && !st.electing && term == st.term
}

func (st *state) status(granted bool) frame {
	return frame{Type: frameStatus, Term: st.term, Role: st.role, Applied: st.applied, AppliedTerm: st.appliedTerm,
		Granted: granted, LeaderID: st.leader.ID, LeaderRepl: st.leader.ReplAddr, LeaderSvc: st.leader.SvcAddr}
}

// beat is the leader's heartbeat: term, watermark, view and identity.
func (st *state) beat() frame {
	return frame{Type: frameHeartbeat, Term: st.term, Role: st.role, Applied: st.applied, Committed: st.committed, Peers: st.peers,
		LeaderID: st.leader.ID, LeaderRepl: st.leader.ReplAddr, LeaderSvc: st.leader.SvcAddr}
}

// joinFrame is the follower's opening frame. force asks for a snapshot even
// where a resume would be allowed: local state failed to extend the leader's
// log and resuming would re-ship the entry that failed.
func (st *state) joinFrame(force bool) frame {
	return frame{Type: frameJoin, Peer: st.self, From: st.applied, Term: st.term, AppliedTerm: st.appliedTerm, ForceSnapshot: force}
}

// logAhead compares two logs by (appliedTerm, applied), Raft's election rule:
// a log whose newest entry came from a later leadership wins, same-leadership
// logs compare length. Bare indexes would let a deposed leader's unreplicated
// writes outrank a newer leader's quorum-acked ones.
func logAhead(aTerm, a, bTerm, b uint64) bool {
	return aTerm > bTerm || aTerm == bTerm && a > b
}

func (st *state) jitter(d time.Duration) time.Duration {
	st.rnd ^= st.rnd << 13
	st.rnd ^= st.rnd >> 7
	st.rnd ^= st.rnd << 17
	return jitter(d, st.rnd)
}

// jitter spreads d ±20% by r. Identical configs otherwise fire their timers
// in lockstep after a heal and synchronize the retry storm (Raft §5.2); the
// rank still decides who wins, jitter only de-synchronizes when each looks.
func jitter(d time.Duration, r uint64) time.Duration {
	if d <= 0 {
		return d
	}
	return d*4/5 + time.Duration(r%uint64(d*2/5+1))
}

// promotionRank returns this node's election backoff rank within the ranked
// candidate list. A node missing from its own view ranks last, not first:
// two view-lost nodes both claiming at once is a split brain.
func promotionRank(cands []Peer, selfID string) int {
	for i, p := range cands {
		if p.ID == selfID {
			return i
		}
	}
	return len(cands)
}

func peerIndex(peers []Peer, id string) int {
	for i, p := range peers {
		if p.ID == id {
			return i
		}
	}
	return -1
}

func hasPeer(peers []Peer, id string) bool { return peerIndex(peers, id) >= 0 }

// withPeer returns a ranked copy of peers with p added or replacing the
// entry of the same ID.
func withPeer(peers []Peer, p Peer) []Peer {
	out := make([]Peer, 0, len(peers)+1)
	for _, q := range peers {
		if q.ID != p.ID {
			out = append(out, q)
		}
	}
	out = append(out, p)
	rankPeers(out)
	return out
}

// sameView reports whether the leader's view, with self's own entry, is the
// one held.
func sameView(held, leaders []Peer, self Peer) bool {
	n := 0
	for _, p := range leaders {
		if p.ID == self.ID {
			p = self
		} else {
			n++
		}
		if i := peerIndex(held, p.ID); i < 0 || held[i] != p {
			return false
		}
	}
	return len(held) == n+1
}

func samePeers(a, b []Peer) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
