// Package raftkv implements the Raft consensus protocol (leader
// election with randomized timeouts, log replication with consistency
// checks, majority commit) driving a replicated key-value state
// machine — the "proven, strongly consistent protocol" substrate of
// the study.
//
// It also implements the tweak that broke RethinkDB (issue #5289,
// Section 4.4): administrative membership changes applied directly at
// the receiving node rather than through log consensus, with removed
// replicas deleting their Raft log. Under a partial partition this
// "apparently minor tweak of the Raft protocol" creates two replica
// sets that both commit writes for the same keys. With the tweak
// disabled, a removed replica remembers its removal and refuses to
// participate, so the old configuration can no longer form a quorum
// and consistency is preserved (at the cost of availability).
package raftkv

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// Role is a Raft node's current role.
type Role int

const (
	// Follower accepts entries from a leader.
	Follower Role = iota
	// Candidate is campaigning.
	Candidate
	// LeaderRole drives replication.
	LeaderRole
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Candidate:
		return "candidate"
	case LeaderRole:
		return "leader"
	default:
		return "follower"
	}
}

// EntryKind distinguishes data from membership entries.
type EntryKind int

const (
	// EntryKV is a key-value mutation.
	EntryKV EntryKind = iota
	// EntryNoop is the empty entry a new leader commits to settle its
	// term.
	EntryNoop
)

// LogEntry is one replicated log record.
type LogEntry struct {
	Index uint64
	Term  uint64
	Kind  EntryKind
	Key   string
	Val   string
}

// RPC method names.
const (
	mVote   = "raft.requestVote"
	mAppend = "raft.appendEntries"
	mPut    = "raft.put"
	mGet    = "raft.get"
	mStatus = "raft.status"
	mRemove = "raft.adminRemove"
	mConfig = "raft.adminConfig"
)

type voteReq struct {
	Term         uint64
	Candidate    netsim.NodeID
	LastLogIndex uint64
	LastLogTerm  uint64
}

type voteResp struct {
	Term    uint64
	Granted bool
}

type appendReq struct {
	Term         uint64
	Leader       netsim.NodeID
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []LogEntry
	LeaderCommit uint64
}

type appendResp struct {
	Term    uint64
	Success bool
	// MatchHint accelerates conflict resolution: the follower's last
	// index.
	MatchHint uint64
}

type putReq struct{ Key, Val string }

type getReq struct{ Key string }

type removeMsg struct {
	NewConfig []netsim.NodeID
	// Relay marks a propagated copy so receivers do not re-propagate.
	Relay bool
}

// Status is a node's externally visible state.
type Status struct {
	ID          netsim.NodeID
	Role        Role
	Term        uint64
	Leader      netsim.NodeID
	LastIndex   uint64
	CommitIndex uint64
	Config      []netsim.NodeID
	Removed     bool
}

// NotLeaderError redirects clients.
type NotLeaderError struct{ Leader netsim.NodeID }

// Error implements the error interface.
func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "raft: not leader (no leader known)"
	}
	return fmt.Sprintf("raft: not leader; try %s", e.Leader)
}

// ErrNotFound is returned for missing keys.
var ErrNotFound = errors.New("raftkv: key not found")

// ErrNoQuorum is returned when a proposal cannot commit in time.
var ErrNoQuorum = errors.New("raftkv: proposal did not reach quorum")

// ErrRemoved is returned by nodes that know they were removed from the
// configuration.
var ErrRemoved = errors.New("raftkv: node removed from configuration")

// Config configures a Raft group.
type Config struct {
	// Peers is the initial configuration.
	Peers []netsim.NodeID
	// HeartbeatInterval is the leader's replication period.
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// RPCTimeout bounds one round trip.
	RPCTimeout time.Duration
	// CommitWait is how long a Put waits for its entry to commit.
	CommitWait time.Duration
	// DeleteLogOnRemoval is the RethinkDB tweak: a replica told it was
	// removed deletes its entire Raft state. Proper Raft (false)
	// retains the log, so the node remembers its removal.
	DeleteLogOnRemoval bool
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 10 * time.Millisecond
	}
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 50 * time.Millisecond
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 100 * time.Millisecond
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	if c.CommitWait == 0 {
		c.CommitWait = 500 * time.Millisecond
	}
	return c
}

// Node is one Raft server plus its KV state machine.
type Node struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint
	clk clock.Clock

	mu               sync.Mutex
	role             Role
	term             uint64
	votedFor         netsim.NodeID
	leader           netsim.NodeID
	log              []LogEntry // log[i].Index == i+1
	commitIndex      uint64
	lastApplied      uint64
	config           []netsim.NodeID
	removed          bool
	electionDeadline time.Time
	nextIndex        map[netsim.NodeID]uint64
	matchIndex       map[netsim.NodeID]uint64
	data             map[string]string
	stopped          bool

	rng    *rand.Rand
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewNode creates a Raft node, unstarted.
func NewNode(n *netsim.Network, id netsim.NodeID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	ep := transport.NewEndpoint(n, id)
	nd := &Node{
		cfg:    cfg,
		id:     id,
		ep:     ep,
		clk:    ep.Clock(),
		config: append([]netsim.NodeID(nil), cfg.Peers...),
		data:   make(map[string]string),
		rng:    rand.New(rand.NewSource(int64(id.Hash()))),
		stopCh: make(chan struct{}),
	}
	nd.ep.DefaultTimeout = cfg.RPCTimeout
	nd.resetElectionDeadlineLocked()
	nd.ep.Handle(mVote, nd.onRequestVote)
	nd.ep.Handle(mAppend, nd.onAppendEntries)
	nd.ep.Handle(mPut, nd.onPut)
	nd.ep.Handle(mGet, nd.onGet)
	nd.ep.Handle(mStatus, nd.onStatus)
	nd.ep.Handle(mRemove, nd.onAdminRemove)
	nd.ep.Handle(mConfig, nd.onAdminConfig)
	return nd
}

// ID returns the node's ID.
func (nd *Node) ID() netsim.NodeID { return nd.id }

// Start launches the tick loop. The ticker is created here, on the
// caller, so creation (and same-instant firing) order follows the
// deterministic deployment order.
func (nd *Node) Start() {
	nd.wg.Add(1)
	t := nd.clk.NewTicker(nd.cfg.HeartbeatInterval / 2)
	go nd.tickLoop(t)
}

// Stop halts the node.
func (nd *Node) Stop() {
	nd.mu.Lock()
	if nd.stopped {
		nd.mu.Unlock()
		return
	}
	nd.stopped = true
	nd.mu.Unlock()
	close(nd.stopCh)
	nd.wg.Wait()
	nd.ep.Close()
}

// Status returns the node's externally visible state.
func (nd *Node) Status() Status {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return Status{
		ID: nd.id, Role: nd.role, Term: nd.term, Leader: nd.leader,
		LastIndex: nd.lastIndexLocked(), CommitIndex: nd.commitIndex,
		Config: append([]netsim.NodeID(nil), nd.config...), Removed: nd.removed,
	}
}

// Data returns a copy of the applied state machine (for verification).
func (nd *Node) Data() map[string]string {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	out := make(map[string]string, len(nd.data))
	for k, v := range nd.data {
		out[k] = v
	}
	return out
}

// Log returns a copy of the log (for invariant checks).
func (nd *Node) Log() []LogEntry {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return append([]LogEntry(nil), nd.log...)
}

func (nd *Node) lastIndexLocked() uint64 { return uint64(len(nd.log)) }

func (nd *Node) lastTermLocked() uint64 {
	if len(nd.log) == 0 {
		return 0
	}
	return nd.log[len(nd.log)-1].Term
}

func (nd *Node) entryAtLocked(index uint64) (LogEntry, bool) {
	if index == 0 || index > uint64(len(nd.log)) {
		return LogEntry{}, false
	}
	return nd.log[index-1], true
}

func (nd *Node) majorityLocked() int { return len(nd.config)/2 + 1 }

func (nd *Node) inConfigLocked(id netsim.NodeID) bool {
	for _, p := range nd.config {
		if p == id {
			return true
		}
	}
	return false
}

func (nd *Node) peersLocked() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(nd.config))
	for _, p := range nd.config {
		if p != nd.id {
			out = append(out, p)
		}
	}
	return out
}

func (nd *Node) resetElectionDeadlineLocked() {
	span := nd.cfg.ElectionTimeoutMax - nd.cfg.ElectionTimeoutMin
	d := nd.cfg.ElectionTimeoutMin + time.Duration(nd.rng.Int63n(int64(span)+1))
	nd.electionDeadline = nd.clk.Now().Add(d)
}

// --- tick loop ---

func (nd *Node) tickLoop(t clock.Ticker) {
	defer nd.wg.Done()
	defer t.Stop()
	clock.TickLoop(nd.clk, t, nd.stopCh, func(sc *clock.Scope) {
		nd.mu.Lock()
		role := nd.role
		removed := nd.removed
		expired := nd.clk.Now().After(nd.electionDeadline)
		nd.mu.Unlock()
		if removed {
			return
		}
		if role == LeaderRole {
			nd.broadcastAppend(sc)
		} else if expired {
			nd.startElection(sc)
		}
	})
}

// --- election ---

func (nd *Node) startElection(sc *clock.Scope) {
	nd.mu.Lock()
	if nd.role == LeaderRole || nd.stopped || nd.removed {
		nd.mu.Unlock()
		return
	}
	nd.role = Candidate
	nd.term++
	nd.votedFor = nd.id
	nd.leader = ""
	nd.resetElectionDeadlineLocked()
	req := voteReq{
		Term: nd.term, Candidate: nd.id,
		LastLogIndex: nd.lastIndexLocked(), LastLogTerm: nd.lastTermLocked(),
	}
	term := nd.term
	peers := nd.peersLocked()
	needed := nd.majorityLocked()
	nd.mu.Unlock()

	votes := 1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		clock.Go(nd.clk, func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- votes are term-guarded and idempotent; a lost grant is a missing ack
			resp, err := nd.ep.CallIn(sc, p, mVote, req, nd.cfg.RPCTimeout)
			if err != nil {
				return
			}
			vr, ok := resp.(voteResp)
			if !ok {
				return
			}
			nd.mu.Lock()
			if vr.Term > nd.term {
				nd.becomeFollowerLocked(vr.Term, "")
			}
			nd.mu.Unlock()
			if vr.Granted {
				mu.Lock()
				votes++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)

	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.role != Candidate || nd.term != term {
		return // the world changed while we campaigned
	}
	if votes >= needed {
		nd.becomeLeaderLocked()
	}
}

func (nd *Node) becomeFollowerLocked(term uint64, leader netsim.NodeID) {
	nd.term = term
	nd.role = Follower
	nd.votedFor = ""
	nd.leader = leader
	nd.resetElectionDeadlineLocked()
}

func (nd *Node) becomeLeaderLocked() {
	nd.role = LeaderRole
	nd.leader = nd.id
	nd.nextIndex = make(map[netsim.NodeID]uint64)
	nd.matchIndex = make(map[netsim.NodeID]uint64)
	next := nd.lastIndexLocked() + 1
	for _, p := range nd.config {
		nd.nextIndex[p] = next
		nd.matchIndex[p] = 0
	}
	// Commit a no-op to settle leadership in this term (Raft §8: a
	// leader cannot conclude older entries are committed until it has
	// committed one entry from its own term).
	nd.log = append(nd.log, LogEntry{
		Index: nd.lastIndexLocked() + 1, Term: nd.term, Kind: EntryNoop,
	})
	if !nd.stopped {
		nd.wg.Add(1)
		clock.Go(nd.clk, func(sc *clock.Scope) {
			defer nd.wg.Done()
			nd.broadcastAppend(sc)
		})
	}
}

func (nd *Node) onRequestVote(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(voteReq)
	if !ok {
		return nil, errors.New("bad vote request")
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.removed {
		return voteResp{Term: nd.term, Granted: false}, nil
	}
	if req.Term > nd.term {
		nd.becomeFollowerLocked(req.Term, "")
	}
	granted := false
	if req.Term == nd.term && (nd.votedFor == "" || nd.votedFor == req.Candidate) {
		// Raft §5.4.1 up-to-date check.
		upToDate := req.LastLogTerm > nd.lastTermLocked() ||
			(req.LastLogTerm == nd.lastTermLocked() && req.LastLogIndex >= nd.lastIndexLocked())
		if upToDate {
			granted = true
			nd.votedFor = req.Candidate
			nd.resetElectionDeadlineLocked()
		}
	}
	return voteResp{Term: nd.term, Granted: granted}, nil
}

// --- replication ---

func (nd *Node) broadcastAppend(sc *clock.Scope) {
	nd.mu.Lock()
	if nd.role != LeaderRole {
		nd.mu.Unlock()
		return
	}
	peers := nd.peersLocked()
	nd.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		clock.Go(nd.clk, func(sc *clock.Scope) {
			defer wg.Done()
			nd.replicateTo(sc, p)
		})
	}
	sc.Idle(wg.Wait)
	nd.advanceCommit()
}

func (nd *Node) replicateTo(sc *clock.Scope, peer netsim.NodeID) {
	nd.mu.Lock()
	if nd.role != LeaderRole {
		nd.mu.Unlock()
		return
	}
	next := nd.nextIndex[peer]
	if next == 0 {
		next = 1
	}
	prevIndex := next - 1
	var prevTerm uint64
	if e, ok := nd.entryAtLocked(prevIndex); ok {
		prevTerm = e.Term
	}
	var entries []LogEntry
	if nd.lastIndexLocked() >= next {
		entries = append(entries, nd.log[next-1:]...)
	}
	req := appendReq{
		Term: nd.term, Leader: nd.id,
		PrevLogIndex: prevIndex, PrevLogTerm: prevTerm,
		Entries: entries, LeaderCommit: nd.commitIndex,
	}
	nd.mu.Unlock()

	//neat:allow ambiguity -- a timed-out AppendEntries is retried by the next heartbeat; appends are idempotent by (term, index)
	resp, err := nd.ep.CallIn(sc, peer, mAppend, req, nd.cfg.RPCTimeout)
	if err != nil {
		return
	}
	ar, ok := resp.(appendResp)
	if !ok {
		return
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if ar.Term > nd.term {
		nd.becomeFollowerLocked(ar.Term, "")
		return
	}
	if nd.role != LeaderRole {
		return
	}
	if ar.Success {
		nd.matchIndex[peer] = prevIndex + uint64(len(entries))
		nd.nextIndex[peer] = nd.matchIndex[peer] + 1
		return
	}
	// Conflict: back off, using the follower's hint when available.
	if ar.MatchHint+1 < next {
		nd.nextIndex[peer] = ar.MatchHint + 1
	} else if next > 1 {
		nd.nextIndex[peer] = next - 1
	}
}

// advanceCommit moves commitIndex to the highest index replicated on a
// majority with an entry from the current term (Raft §5.4.2).
func (nd *Node) advanceCommit() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.role != LeaderRole {
		return
	}
	for n := nd.lastIndexLocked(); n > nd.commitIndex; n-- {
		e, ok := nd.entryAtLocked(n)
		if !ok || e.Term != nd.term {
			continue
		}
		count := 1 // self
		for _, p := range nd.peersLocked() {
			if nd.matchIndex[p] >= n {
				count++
			}
		}
		if count >= nd.majorityLocked() {
			nd.commitIndex = n
			nd.applyLocked()
			break
		}
	}
}

func (nd *Node) applyLocked() {
	for nd.lastApplied < nd.commitIndex {
		nd.lastApplied++
		e := nd.log[nd.lastApplied-1]
		if e.Kind == EntryKV {
			nd.data[e.Key] = e.Val
		}
	}
}

func (nd *Node) onAppendEntries(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(appendReq)
	if !ok {
		return nil, errors.New("bad append")
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.removed {
		return appendResp{Term: nd.term, Success: false}, nil
	}
	if req.Term < nd.term {
		return appendResp{Term: nd.term, Success: false, MatchHint: nd.lastIndexLocked()}, nil
	}
	if req.Term > nd.term || nd.role != Follower {
		nd.becomeFollowerLocked(req.Term, req.Leader)
	}
	nd.leader = req.Leader
	nd.resetElectionDeadlineLocked()

	// Consistency check.
	if req.PrevLogIndex > 0 {
		e, exists := nd.entryAtLocked(req.PrevLogIndex)
		if !exists || e.Term != req.PrevLogTerm {
			hint := nd.lastIndexLocked()
			if hint > req.PrevLogIndex {
				hint = req.PrevLogIndex - 1
			}
			return appendResp{Term: nd.term, Success: false, MatchHint: hint}, nil
		}
	}
	// Append, truncating conflicts.
	for _, entry := range req.Entries {
		if existing, exists := nd.entryAtLocked(entry.Index); exists {
			if existing.Term == entry.Term {
				continue
			}
			nd.log = nd.log[:entry.Index-1] // truncate conflicting suffix
		}
		nd.log = append(nd.log, entry)
	}
	if req.LeaderCommit > nd.commitIndex {
		nd.commitIndex = min64(req.LeaderCommit, nd.lastIndexLocked())
		nd.applyLocked()
	}
	return appendResp{Term: nd.term, Success: true, MatchHint: nd.lastIndexLocked()}, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// --- client operations ---

func (nd *Node) onPut(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(putReq)
	if !ok {
		return nil, errors.New("bad put")
	}
	nd.mu.Lock()
	if nd.removed {
		nd.mu.Unlock()
		return nil, ErrRemoved
	}
	if nd.role != LeaderRole {
		leader := nd.leader
		nd.mu.Unlock()
		return nil, &NotLeaderError{Leader: leader}
	}
	entry := LogEntry{
		Index: nd.lastIndexLocked() + 1, Term: nd.term,
		Kind: EntryKV, Key: req.Key, Val: req.Val,
	}
	nd.log = append(nd.log, entry)
	nd.mu.Unlock()

	// Drive replication until the entry commits or the wait expires.
	sc := nd.ep.DispatchScope()
	deadline := nd.clk.Now().Add(nd.cfg.CommitWait)
	for {
		nd.broadcastAppend(sc)
		nd.mu.Lock()
		committed := nd.commitIndex >= entry.Index && nd.role == LeaderRole
		stillLeader := nd.role == LeaderRole
		nd.mu.Unlock()
		if committed {
			return nil, nil
		}
		if !stillLeader {
			// The entry was appended before the step-down: it may
			// survive in a log and legitimately commit later, so the
			// refusal must not claim the write definitively did not
			// happen. NoQuorum is the honest answer ("commit unknown"),
			// and clients classify it as maybe-executed.
			return nil, ErrNoQuorum
		}
		if nd.clk.Now().After(deadline) {
			return nil, ErrNoQuorum
		}
		sc.Sleep(nd.cfg.HeartbeatInterval / 2)
	}
}

func (nd *Node) onGet(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(getReq)
	if !ok {
		return nil, errors.New("bad get")
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.removed {
		return nil, ErrRemoved
	}
	if nd.role != LeaderRole {
		return nil, &NotLeaderError{Leader: nd.leader}
	}
	v, exists := nd.data[req.Key]
	if !exists {
		return nil, ErrNotFound
	}
	return v, nil
}

func (nd *Node) onStatus(netsim.NodeID, any) (any, error) {
	return nd.Status(), nil
}

// --- administrative membership change (the tweak) ---

// onAdminConfig applies a new configuration directly at this node —
// without consensus — and notifies every REMOVED node it can still
// reach. This is the RethinkDB behaviour.
func (nd *Node) onAdminConfig(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(removeMsg)
	if !ok {
		return nil, errors.New("bad config change")
	}
	nd.mu.Lock()
	oldConfig := nd.config
	nd.config = append([]netsim.NodeID(nil), msg.NewConfig...)
	keep := make(map[netsim.NodeID]bool, len(msg.NewConfig))
	for _, p := range msg.NewConfig {
		keep[p] = true
	}
	if !keep[nd.id] {
		nd.applyRemovalLocked()
	}
	var removed []netsim.NodeID
	for _, p := range oldConfig {
		if !keep[p] && p != nd.id {
			removed = append(removed, p)
		}
	}
	var members []netsim.NodeID
	for _, p := range msg.NewConfig {
		if p != nd.id {
			members = append(members, p)
		}
	}
	nd.mu.Unlock()

	if !msg.Relay {
		// Best-effort notifications: nodes behind the partition never
		// hear about the change — the crux of the failure.
		relay := removeMsg{NewConfig: msg.NewConfig, Relay: true}
		sc := nd.ep.DispatchScope()
		for _, p := range removed {
			//neat:allow ambiguity -- best-effort config relay: nodes behind the partition missing it is the crux of the failure
			_, _ = nd.ep.CallIn(sc, p, mRemove, relay, nd.cfg.RPCTimeout)
		}
		for _, p := range members {
			//neat:allow ambiguity -- best-effort config relay: nodes behind the partition missing it is the crux of the failure
			_, _ = nd.ep.CallIn(sc, p, mConfig, relay, nd.cfg.RPCTimeout)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return removed, nil
}

// onAdminRemove tells this node it was removed from the configuration.
func (nd *Node) onAdminRemove(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(removeMsg)
	if !ok {
		return nil, errors.New("bad removal")
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.config = append([]netsim.NodeID(nil), msg.NewConfig...)
	nd.applyRemovalLocked()
	return nil, nil
}

// applyRemovalLocked is where the flawed and proper behaviours differ.
func (nd *Node) applyRemovalLocked() {
	if nd.cfg.DeleteLogOnRemoval {
		// RethinkDB's tweak: wipe everything, including the fact that
		// we were removed. The node is reborn as an empty, willing
		// voter for whoever contacts it — letting the stale
		// configuration keep its quorum.
		nd.log = nil
		nd.data = make(map[string]string)
		nd.commitIndex = 0
		nd.lastApplied = 0
		nd.term = 0
		nd.votedFor = ""
		nd.role = Follower
		nd.leader = ""
		nd.removed = false
		nd.config = append([]netsim.NodeID(nil), nd.cfg.Peers...)
		nd.resetElectionDeadlineLocked()
		return
	}
	// Proper Raft: the removal is durable state. The node stops
	// voting and serving entirely.
	nd.removed = true
	nd.role = Follower
	nd.leader = ""
}
