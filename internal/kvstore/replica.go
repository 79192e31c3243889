package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/election"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// Role is a replica's current role.
type Role int

const (
	// Follower replicates from a leader.
	Follower Role = iota
	// Leader accepts writes and drives replication.
	Leader
)

// String returns "leader" or "follower".
func (r Role) String() string {
	if r == Leader {
		return "leader"
	}
	return "follower"
}

// Op is one replicated operation.
type Op struct {
	Seq  int
	Term uint64
	Key  string
	Val  string
	Del  bool
	TS   int64
}

// Entry is the stored state of one key.
type Entry struct {
	Val string
	TS  int64
	Del bool
}

// RPC method names.
const (
	mPut    = "kv.put"
	mGet    = "kv.get"
	mDel    = "kv.del"
	mHB     = "kv.hb"
	mVote   = "kv.vote"
	mAppend = "kv.append"
	mSnap   = "kv.snap"
	mStatus = "kv.status"
)

type hbMsg struct {
	Term    uint64
	Leader  netsim.NodeID
	LogLen  int
	LogTerm uint64
	LastTS  int64
	Prio    int
}

type hbResp struct {
	OK     bool
	LogLen int
}

type voteReq struct{ Cand election.Candidate }

type voteResp struct{ Granted bool }

type appendMsg struct {
	Term   uint64
	Leader netsim.NodeID
	Ops    []Op
}

type appendResp struct{ OK bool }

type putReq struct{ Key, Val string }

type getReq struct{ Key string }

type delReq struct{ Key string }

type snapResp struct {
	Data   map[string]Entry
	Log    []Op
	Term   uint64
	LastTS int64
}

// StatusInfo is the externally visible state of one replica.
type StatusInfo struct {
	ID     netsim.NodeID
	Role   Role
	Term   uint64
	Leader netsim.NodeID
	LogLen int
	LastTS int64
}

// NotLeaderError redirects the client to the current leader (if known).
type NotLeaderError struct{ Leader netsim.NodeID }

// Error implements the error interface.
func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "not leader (no leader known)"
	}
	return fmt.Sprintf("not leader; try %s", e.Leader)
}

// ErrNotFound is returned for reads of missing or deleted keys.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrWriteFailed is returned when the write concern was not met. With
// ApplyBeforeReplicate the leader's local copy retains the value anyway
// — the dirty-read flaw.
var ErrWriteFailed = errors.New("kvstore: write failed to meet write concern")

// ErrNoQuorum is returned by ReadMajority reads when the leader cannot
// confirm a majority.
var ErrNoQuorum = errors.New("kvstore: cannot confirm majority")

// Replica is one member of the replica set.
type Replica struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint
	clk clock.Clock

	mu              sync.Mutex
	role            Role
	term            uint64
	votedTerm       uint64
	votedFor        netsim.NodeID
	leader          netsim.NodeID
	lastLeaderHeard time.Time
	leaseMissed     int
	log             []Op
	data            map[string]Entry
	lastTS          int64
	syncing         bool
	stopped         bool

	// rng drives the election backoff jitter. It is seeded from the
	// replica ID so identical deployments take identical backoffs —
	// the global math/rand source would leak nondeterminism across
	// concurrent campaign rounds.
	rng *rand.Rand

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewReplica creates (but does not start) a replica attached to the
// fabric.
func NewReplica(n *netsim.Network, id netsim.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	ep := transport.NewEndpoint(n, id)
	r := &Replica{
		cfg:             cfg,
		id:              id,
		ep:              ep,
		clk:             ep.Clock(),
		data:            make(map[string]Entry),
		lastLeaderHeard: ep.Clock().Now(),
		rng:             rand.New(rand.NewSource(int64(id.Hash()))),
		stopCh:          make(chan struct{}),
	}
	r.ep.DefaultTimeout = cfg.RPCTimeout
	r.ep.Handle(mPut, r.onPut)
	r.ep.Handle(mGet, r.onGet)
	r.ep.Handle(mDel, r.onDel)
	r.ep.Handle(mHB, r.onHeartbeat)
	r.ep.Handle(mVote, r.onVote)
	r.ep.Handle(mAppend, r.onAppend)
	r.ep.Handle(mSnap, r.onSnapshot)
	r.ep.Handle(mStatus, r.onStatus)
	return r
}

// ID returns the replica's node ID.
func (r *Replica) ID() netsim.NodeID { return r.id }

// Start launches the replica's tick loop. The ticker is created here,
// on the caller, so creation (and same-instant firing) order follows
// the deterministic deployment order.
func (r *Replica) Start() {
	r.wg.Add(1)
	t := r.clk.NewTicker(r.cfg.HeartbeatInterval)
	go r.tickLoop(t)
}

// Stop halts the replica and detaches it from the fabric.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.stopCh)
	r.wg.Wait()
	r.ep.Close()
}

// Status returns a snapshot of the replica's externally visible state.
func (r *Replica) Status() StatusInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return StatusInfo{
		ID: r.id, Role: r.role, Term: r.term, Leader: r.leader,
		LogLen: len(r.log), LastTS: r.lastTS,
	}
}

// Data returns a copy of the replica's current store, for verification.
func (r *Replica) Data() map[string]Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Entry, len(r.data))
	for k, v := range r.data {
		out[k] = v
	}
	return out
}

// BecomeLeader forces leadership (used to establish a deterministic
// initial leader in tests, the way deployment scripts seed a primary).
func (r *Replica) BecomeLeader() {
	r.mu.Lock()
	r.role = Leader
	r.leader = r.id
	r.term++
	r.mu.Unlock()
	r.broadcastHeartbeats(clock.Root(r.clk))
}

func (r *Replica) prio() int { return r.cfg.Priorities[r.id] }

func (r *Replica) lastLogTermLocked() uint64 {
	if len(r.log) == 0 {
		return 0
	}
	return r.log[len(r.log)-1].Term
}

func (r *Replica) candidateLocked() election.Candidate {
	return election.Candidate{
		ID: r.id, Term: r.term, LogLen: len(r.log), LogTerm: r.lastLogTermLocked(),
		LastTS: r.lastTS, Priority: r.cfg.Priorities[r.id],
	}
}

func (r *Replica) peers() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(r.cfg.Replicas)-1)
	for _, id := range r.cfg.Replicas {
		if id != r.id {
			out = append(out, id)
		}
	}
	return out
}

func (r *Replica) nextTSLocked() int64 {
	ts := r.clk.Now().UnixNano()
	if ts <= r.lastTS {
		ts = r.lastTS + 1
	}
	r.lastTS = ts
	return ts
}

func (r *Replica) applyLocked(op Op) {
	r.data[op.Key] = Entry{Val: op.Val, TS: op.TS, Del: op.Del}
	if op.TS > r.lastTS {
		r.lastTS = op.TS
	}
}

// --- tick loop: heartbeats (leader) and election timeout (follower) ---

func (r *Replica) tickLoop(t clock.Ticker) {
	defer r.wg.Done()
	defer t.Stop()
	clock.TickLoop(r.clk, t, r.stopCh, func(sc *clock.Scope) {
		r.mu.Lock()
		role := r.role
		silent := r.clk.Now().Sub(r.lastLeaderHeard)
		r.mu.Unlock()
		if role == Leader {
			r.broadcastHeartbeats(sc)
		} else if silent > r.cfg.ElectionTimeout {
			r.campaign(sc)
		}
	})
}

func (r *Replica) broadcastHeartbeats(sc *clock.Scope) {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return
	}
	msg := hbMsg{Term: r.term, Leader: r.id, LogLen: len(r.log), LogTerm: r.lastLogTermLocked(), LastTS: r.lastTS, Prio: r.prio()}
	peers := r.peers()
	r.mu.Unlock()

	acks := 1 // self
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		clock.Go(r.clk, func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- heartbeat is idempotent; a timed-out beat just counts as no ack
			resp, err := r.ep.CallIn(sc, p, mHB, msg, r.cfg.HeartbeatInterval)
			if err != nil {
				return
			}
			if hr, ok := resp.(hbResp); ok && hr.OK {
				mu.Lock()
				acks++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != Leader {
		return
	}
	if acks >= r.cfg.Majority() {
		r.leaseMissed = 0
		return
	}
	r.leaseMissed++
	if r.cfg.StepDownOnLostMajority && r.leaseMissed >= r.cfg.LeaseMisses {
		// The deposed leader finally notices it lost the majority.
		// Everything it served between the partition and this moment is
		// the overlap window of Table 4.
		r.role = Follower
		r.leader = ""
		r.leaseMissed = 0
		r.lastLeaderHeard = r.clk.Now() // full timeout before campaigning
	}
}

func (r *Replica) campaign(sc *clock.Scope) {
	r.mu.Lock()
	if r.role == Leader || r.stopped {
		r.mu.Unlock()
		return
	}
	r.term++
	startTerm := r.term
	r.votedTerm = r.term
	r.votedFor = r.id
	r.leader = "" // campaigning implies we consider the old leader gone
	// Randomized election backoff: restart the election timer with
	// jitter so repeated failed campaigns do not livelock the cluster
	// by deposing every new leader before it can announce itself.
	r.lastLeaderHeard = r.clk.Now().Add(time.Duration(r.rng.Int63n(int64(r.cfg.ElectionTimeout))))
	cand := r.candidateLocked()
	peers := r.peers()
	mode := r.cfg.ElectionMode
	r.mu.Unlock()

	grants := 1 // self
	responses := 1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		clock.Go(r.clk, func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- votes are term-guarded and idempotent; a lost grant is a missing ack
			resp, err := r.ep.CallIn(sc, p, mVote, voteReq{Cand: cand}, r.cfg.RPCTimeout)
			if err != nil {
				return
			}
			vr, ok := resp.(voteResp)
			mu.Lock()
			responses++
			if ok && vr.Granted {
				grants++
			}
			mu.Unlock()
		})
	}
	sc.Idle(wg.Wait)

	won := false
	if mode.RequiresMajority() {
		won = grants >= r.cfg.Majority()
	} else {
		// Flawed criteria elect within the reachable set: every node
		// that answered must have granted. An isolated node elects
		// itself — the new-independent-cluster behaviour of RabbitMQ
		// issue #1455 and Apache Ignite.
		won = grants == responses
	}
	if !won {
		return
	}
	r.mu.Lock()
	// Abort if the world changed while we were collecting votes.
	if r.stopped || r.role == Leader || r.term != startTerm ||
		(r.leader != "" && r.clk.Now().Sub(r.lastLeaderHeard) < r.cfg.ElectionTimeout) {
		r.mu.Unlock()
		return
	}
	r.role = Leader
	r.leader = r.id
	r.leaseMissed = 0
	r.mu.Unlock()
	r.broadcastHeartbeats(sc)
}

// --- RPC handlers ---

func (r *Replica) onHeartbeat(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(hbMsg)
	if !ok {
		return nil, errors.New("bad heartbeat")
	}
	r.mu.Lock()
	if r.role == Leader {
		// Two leaders have met: the leader-overlap or post-heal
		// moment. Consolidate by the configured criterion; the loser
		// truncates its state to the winner's.
		other := election.Candidate{
			ID: msg.Leader, Term: msg.Term, LogLen: msg.LogLen,
			LastTS: msg.LastTS, Priority: msg.Prio,
		}
		self := r.candidateLocked()
		if election.Beats(r.cfg.ConsolidationMode, other, self) {
			r.role = Follower
			r.leader = msg.Leader
			if msg.Term > r.term {
				r.term = msg.Term
			}
			r.lastLeaderHeard = r.clk.Now()
			if !r.syncing && !r.stopped {
				r.syncing = true
				r.wg.Add(1)
				clock.Go(r.clk, func(sc *clock.Scope) {
					defer r.wg.Done()
					r.pullSnapshot(sc, msg.Leader)
				})
			}
			r.mu.Unlock()
			return hbResp{OK: true}, nil
		}
		r.mu.Unlock()
		return hbResp{OK: false}, nil
	}

	accept := msg.Term >= r.term || !r.cfg.ElectionMode.RequiresMajority()
	if accept {
		if msg.Term > r.term {
			r.term = msg.Term
		}
		r.leader = msg.Leader
		r.lastLeaderHeard = r.clk.Now()
		behind := msg.LogLen > len(r.log) || msg.LogTerm > r.lastLogTermLocked()
		if behind && !r.syncing && !r.stopped && !r.cfg.Arbiters[r.id] {
			// We are behind this leader — either fewer entries, or our
			// tail was written in a stale term and must be truncated.
			r.syncing = true
			r.wg.Add(1)
			clock.Go(r.clk, func(sc *clock.Scope) {
				defer r.wg.Done()
				r.pullSnapshot(sc, msg.Leader)
			})
		}
	}
	logLen := len(r.log)
	r.mu.Unlock()
	return hbResp{OK: accept, LogLen: logLen}, nil
}

func (r *Replica) onVote(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(voteReq)
	if !ok {
		return nil, errors.New("bad vote request")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	mode := r.cfg.ElectionMode
	if mode.RequiresMajority() && req.Cand.Term > r.term {
		r.term = req.Cand.Term
		r.votedFor = ""
		if r.role == Leader {
			r.role = Follower
			r.leader = ""
		}
	}
	votedFor := netsim.NodeID("")
	if r.votedTerm == req.Cand.Term {
		votedFor = r.votedFor
	}
	voter := election.Voter{
		Self:        r.candidateLocked(),
		CurrentTerm: r.term,
		VotedFor:    votedFor,
		LeaderAlive: r.leader != "" && r.clk.Now().Sub(r.lastLeaderHeard) < r.cfg.ElectionTimeout,
	}
	granted := election.GrantVote(mode, voter, req.Cand)
	if granted {
		r.votedTerm = req.Cand.Term
		r.votedFor = req.Cand.ID
	}
	return voteResp{Granted: granted}, nil
}

func (r *Replica) onAppend(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(appendMsg)
	if !ok {
		return nil, errors.New("bad append")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.ElectionMode.RequiresMajority() && msg.Term < r.term {
		return appendResp{OK: false}, nil
	}
	if msg.Term > r.term {
		r.term = msg.Term
		if r.role == Leader {
			r.role = Follower
		}
	}
	r.leader = msg.Leader
	r.lastLeaderHeard = r.clk.Now()
	if r.cfg.Arbiters[r.id] {
		// Arbiters acknowledge without storing: they exist only to
		// vote, which is what makes the conflicting-criteria election
		// deadlock possible (MongoDB SERVER-14885).
		return appendResp{OK: true}, nil
	}
	for _, op := range msg.Ops {
		if op.Seq != len(r.log)+1 {
			// Log gap: we missed operations; a snapshot pull will
			// reconcile us.
			if !r.syncing && !r.stopped {
				r.syncing = true
				r.wg.Add(1)
				clock.Go(r.clk, func(sc *clock.Scope) {
					defer r.wg.Done()
					r.pullSnapshot(sc, msg.Leader)
				})
			}
			return appendResp{OK: false}, nil
		}
		r.log = append(r.log, op)
		r.applyLocked(op)
	}
	return appendResp{OK: true}, nil
}

func (r *Replica) onSnapshot(netsim.NodeID, any) (any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data := make(map[string]Entry, len(r.data))
	for k, v := range r.data {
		data[k] = v
	}
	log := append([]Op(nil), r.log...)
	return snapResp{Data: data, Log: log, Term: r.term, LastTS: r.lastTS}, nil
}

// pullSnapshot replaces the local state with the given peer's. This is
// the consolidation step: "the leader trusts that its data set is
// complete and all replicas should update/trim their data sets to match
// the leader copy". Divergent local writes are discarded (data loss)
// and keys the winner never saw deleted come back (reappearance).
func (r *Replica) pullSnapshot(sc *clock.Scope, leader netsim.NodeID) {
	//neat:allow ambiguity -- read-only snapshot pull; an aborted sync retries on the next cycle
	resp, err := r.ep.CallIn(sc, leader, mSnap, nil, r.cfg.RPCTimeout)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncing = false
	if err != nil {
		return
	}
	snap, ok := resp.(snapResp)
	if !ok {
		return
	}
	r.data = make(map[string]Entry, len(snap.Data))
	for k, v := range snap.Data {
		r.data[k] = v
	}
	r.log = append([]Op(nil), snap.Log...)
	if snap.Term > r.term {
		r.term = snap.Term
	}
	r.lastTS = snap.LastTS
}

// --- client-facing handlers ---

func (r *Replica) onPut(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(putReq)
	if !ok {
		return nil, errors.New("bad put")
	}
	return nil, r.propose(r.ep.DispatchScope(), Op{Key: req.Key, Val: req.Val})
}

func (r *Replica) onDel(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(delReq)
	if !ok {
		return nil, errors.New("bad delete")
	}
	return nil, r.propose(r.ep.DispatchScope(), Op{Key: req.Key, Del: true})
}

func (r *Replica) propose(sc *clock.Scope, op Op) error {
	r.mu.Lock()
	if r.role != Leader {
		leader := r.leader
		r.mu.Unlock()
		return &NotLeaderError{Leader: leader}
	}
	op.Seq = len(r.log) + 1
	op.Term = r.term
	op.TS = r.nextTSLocked()
	r.log = append(r.log, op)
	if r.cfg.ApplyBeforeReplicate {
		r.applyLocked(op)
	}
	msg := appendMsg{Term: r.term, Leader: r.id, Ops: []Op{op}}
	peers := r.peers()
	r.mu.Unlock()

	if r.cfg.WriteConcern == WriteAsync {
		for _, p := range peers {
			_ = r.ep.Notify(p, mAppend, msg)
		}
		r.applyIfDeferred(op)
		return nil
	}
	if r.cfg.WriteConcern == WriteLocal {
		r.applyIfDeferred(op)
		return nil
	}

	acks := 1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		clock.Go(r.clk, func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- modeled replication counts only acked appends; the ambiguous window is the studied gap
			resp, err := r.ep.CallIn(sc, p, mAppend, msg, r.cfg.RPCTimeout)
			if err != nil {
				return
			}
			if ar, ok := resp.(appendResp); ok && ar.OK {
				mu.Lock()
				acks++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)

	need := r.cfg.Majority()
	if r.cfg.WriteConcern == WriteAll {
		need = len(r.cfg.Replicas)
	}
	if acks < need {
		// The write failed — but with ApplyBeforeReplicate the local
		// copy already holds the value, and the op stays in the log.
		// A later local read returns it: Figure 2's dirty read.
		return fmt.Errorf("%w: %d of %d acks (need %d)", ErrWriteFailed, acks, len(r.cfg.Replicas), need)
	}
	r.applyIfDeferred(op)
	return nil
}

func (r *Replica) applyIfDeferred(op Op) {
	if r.cfg.ApplyBeforeReplicate {
		return
	}
	r.mu.Lock()
	r.applyLocked(op)
	r.mu.Unlock()
}

func (r *Replica) onGet(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(getReq)
	if !ok {
		return nil, errors.New("bad get")
	}
	r.mu.Lock()
	role := r.role
	leader := r.leader
	entry, exists := r.data[req.Key]
	r.mu.Unlock()

	if role != Leader && !r.cfg.AllowFollowerReads {
		return nil, &NotLeaderError{Leader: leader}
	}
	if role == Leader && r.cfg.ReadConcern == ReadMajority {
		if !r.confirmMajority(r.ep.DispatchScope()) {
			return nil, ErrNoQuorum
		}
		// Re-read after confirmation: consolidation may have run.
		r.mu.Lock()
		entry, exists = r.data[req.Key]
		stillLeader := r.role == Leader
		r.mu.Unlock()
		if !stillLeader {
			return nil, &NotLeaderError{Leader: leader}
		}
	}
	if !exists || entry.Del {
		return nil, ErrNotFound
	}
	return entry.Val, nil
}

// confirmMajority performs a synchronous heartbeat round and reports
// whether a majority acknowledged. It is the read-barrier that makes
// ReadMajority immune to the overlap window.
func (r *Replica) confirmMajority(sc *clock.Scope) bool {
	r.mu.Lock()
	msg := hbMsg{Term: r.term, Leader: r.id, LogLen: len(r.log), LogTerm: r.lastLogTermLocked(), LastTS: r.lastTS, Prio: r.prio()}
	peers := r.peers()
	maj := r.cfg.Majority()
	r.mu.Unlock()
	acks := 1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		clock.Go(r.clk, func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- heartbeat is idempotent; a timed-out beat just counts as no ack
			resp, err := r.ep.CallIn(sc, p, mHB, msg, r.cfg.RPCTimeout)
			if err != nil {
				return
			}
			if hr, ok := resp.(hbResp); ok && hr.OK {
				mu.Lock()
				acks++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)
	return acks >= maj
}

func (r *Replica) onStatus(netsim.NodeID, any) (any, error) {
	return r.Status(), nil
}
