package eventual

import (
	"errors"
	"sort"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// ConsolidationPolicy selects how divergent versions reconcile.
type ConsolidationPolicy int

const (
	// LastWriterWins keeps the version with the newest wall-clock
	// timestamp — the flawed policy the studied systems use. It
	// discards acknowledged writes without checking replication
	// status.
	LastWriterWins ConsolidationPolicy = iota
	// VectorCausality keeps the causally newest version and retains
	// both as siblings when they are concurrent, so nothing
	// acknowledged is silently dropped.
	VectorCausality
)

// String names the policy.
func (p ConsolidationPolicy) String() string {
	if p == VectorCausality {
		return "vector-causality"
	}
	return "last-writer-wins"
}

// Version is one stored version of a key.
type Version struct {
	Val   string
	TS    int64 // wall-clock timestamp (LWW attribute)
	Clock VClock
	Node  netsim.NodeID // coordinator that accepted the write
}

// RPC method names.
const (
	mPut       = "ev.put"
	mGet       = "ev.get"
	mRepl      = "ev.repl"
	mSyncChunk = "ev.syncChunk"
	mSyncBegin = "ev.syncBegin"
	mSyncEnd   = "ev.syncEnd"
	mDigest    = "ev.digest"
)

type putReq struct{ Key, Val string }

// putResp returns the version the coordinator created, vector clock
// included — the write context a Dynamo-style client receives.
type putResp struct{ Ver Version }

type getReq struct{ Key string }

// getResp carries all current siblings of a key.
type getResp struct{ Versions []Version }

type replMsg struct {
	Key      string
	Versions []Version
}

type digestResp map[string][]Version

type syncBeginMsg struct{ Total int }

type syncChunkMsg struct {
	Key      string
	Versions []Version
	Index    int
}

type syncEndMsg struct{ Sent int }

// ErrNotFound is returned for missing keys.
var ErrNotFound = errors.New("eventual: key not found")

// Config configures a replica group.
type Config struct {
	// Replicas is the static membership.
	Replicas []netsim.NodeID
	// Policy is the consolidation policy.
	Policy ConsolidationPolicy
	// AntiEntropyInterval is the gossip period (0 disables background
	// anti-entropy; tests then drive reconciliation explicitly).
	AntiEntropyInterval time.Duration
	// HintedHandoff stores failed replications and replays them later.
	HintedHandoff bool
	// AtomicSync discards a partially received bulk sync instead of
	// applying the prefix. Off by default — applying the prefix is the
	// Redis PSYNC corruption (issue #3899).
	AtomicSync bool
	// SyncChunkDelay paces the bulk transfer (one pause per chunk),
	// modelling the wire time of a large dataset. It widens the
	// window in which a partition can interrupt the sync — the
	// "bounded" timing constraint of Table 11.
	SyncChunkDelay time.Duration
	// RPCTimeout bounds replication calls.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	return c
}

type hint struct {
	peer netsim.NodeID
	msg  replMsg
}

// Replica is one store node.
type Replica struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint

	mu      sync.Mutex
	data    map[string][]Version // current siblings per key
	hints   []hint
	lastTS  int64
	stopped bool

	// syncState tracks an in-progress inbound bulk sync.
	syncRecv    map[string][]Version
	syncExpect  int
	syncGot     int
	corrupted   bool // a partial sync was applied
	syncApplied int

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewReplica creates a replica, unstarted.
func NewReplica(n *netsim.Network, id netsim.NodeID, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		cfg:    cfg,
		id:     id,
		ep:     transport.NewEndpoint(n, id),
		data:   make(map[string][]Version),
		stopCh: make(chan struct{}),
	}
	r.ep.DefaultTimeout = cfg.RPCTimeout
	r.ep.Handle(mPut, r.onPut)
	r.ep.Handle(mGet, r.onGet)
	r.ep.Handle(mRepl, r.onRepl)
	r.ep.Handle(mDigest, r.onDigest)
	r.ep.Handle(mSyncBegin, r.onSyncBegin)
	r.ep.Handle(mSyncChunk, r.onSyncChunk)
	r.ep.Handle(mSyncEnd, r.onSyncEnd)
	return r
}

// ID returns the replica's node ID.
func (r *Replica) ID() netsim.NodeID { return r.id }

// Start launches anti-entropy and hint replay, if configured. The
// ticker is created on the caller for deterministic creation order.
func (r *Replica) Start() {
	if r.cfg.AntiEntropyInterval > 0 {
		r.wg.Add(1)
		t := r.ep.Clock().NewTicker(r.cfg.AntiEntropyInterval)
		go r.antiEntropyLoop(t)
	}
}

// Stop halts the replica.
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
	ts := r.ep.Clock().Now().UnixNano()
	if ts <= r.lastTS {
		ts = r.lastTS + 1
	}
	r.lastTS = ts
	return ts
}

// --- consolidation ---

// reconcile merges incoming versions into the current sibling set
// according to the policy, returning the new sibling set.
func (r *Replica) reconcile(current, incoming []Version) []Version {
	switch r.cfg.Policy {
	case VectorCausality:
		return reconcileVector(current, incoming)
	default:
		return reconcileLWW(current, incoming)
	}
}

// reconcileLWW keeps exactly one version: the newest timestamp. No
// replication-status check — the flaw. Timestamp ties break on
// (coordinator, value), the way production LWW stores compare cell
// values: without a total order, two replicas whose versions carry
// equal timestamps (likely under a virtual clock, possible under NTP
// skew) would each keep their own version and never converge.
func reconcileLWW(current, incoming []Version) []Version {
	var best Version
	found := false
	for _, v := range append(append([]Version(nil), current...), incoming...) {
		if !found || lwwLess(best, v) {
			best = v
			found = true
		}
	}
	if !found {
		return nil
	}
	return []Version{best}
}

// lwwLess reports whether b beats a under last-writer-wins.
func lwwLess(a, b Version) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Val < b.Val
}

// reconcileVector drops versions causally dominated by another and
// keeps concurrent versions side by side as siblings.
func reconcileVector(current, incoming []Version) []Version {
	all := append(append([]Version(nil), current...), incoming...)
	var out []Version
	for i, v := range all {
		dominated := false
		for j, w := range all {
			if i == j {
				continue
			}
			switch v.Clock.Compare(w.Clock) {
			case Before:
				dominated = true
			case Equal:
				// Keep the first of identical versions only.
				if j < i {
					dominated = true
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	return out
}

// --- write path ---

func (r *Replica) onPut(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(putReq)
	if !ok {
		return nil, errors.New("bad put")
	}
	r.mu.Lock()
	// Build the new version: advance past every sibling we know.
	vc := NewVClock()
	for _, v := range r.data[req.Key] {
		vc = vc.Merge(v.Clock)
	}
	vc = vc.Copy().Tick(r.id)
	ver := Version{Val: req.Val, TS: r.nextTSLocked(), Clock: vc, Node: r.id}
	r.data[req.Key] = r.reconcile(r.data[req.Key], []Version{ver})
	msg := replMsg{Key: req.Key, Versions: []Version{ver}}
	peers := r.peers()
	// Register the replication goroutines while the lock still orders
	// us against Stop: Add must never race a Wait on a zero counter.
	spawn := !r.stopped
	if spawn {
		r.wg.Add(len(peers))
	}
	r.mu.Unlock()

	// Asynchronous replication: the client is acknowledged regardless.
	if spawn {
		for _, p := range peers {
			p := p
			clock.Go(r.ep.Clock(), func(sc *clock.Scope) {
				defer r.wg.Done()
				//neat:allow ambiguity -- modeled async replication: a maybe-executed replicate re-sends via hints; version merges are idempotent
				if _, err := r.ep.CallIn(sc, p, mRepl, msg, r.cfg.RPCTimeout); err != nil && r.cfg.HintedHandoff {
					r.mu.Lock()
					r.hints = append(r.hints, hint{peer: p, msg: msg})
					r.mu.Unlock()
				}
			})
		}
	}
	return putResp{Ver: ver}, nil
}

func (r *Replica) onRepl(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(replMsg)
	if !ok {
		return nil, errors.New("bad repl")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.data[msg.Key] = r.reconcile(r.data[msg.Key], msg.Versions)
	for _, v := range msg.Versions {
		if v.TS > r.lastTS {
			r.lastTS = v.TS
		}
	}
	return nil, nil
}

func (r *Replica) onGet(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(getReq)
	if !ok {
		return nil, errors.New("bad get")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions, exists := r.data[req.Key]
	if !exists || len(versions) == 0 {
		return nil, ErrNotFound
	}
	return getResp{Versions: append([]Version(nil), versions...)}, nil
}

func (r *Replica) onDigest(netsim.NodeID, any) (any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(digestResp, len(r.data))
	for k, vs := range r.data {
		out[k] = append([]Version(nil), vs...)
	}
	return out, nil
}

// --- anti-entropy and hint replay ---

func (r *Replica) antiEntropyLoop(t clock.Ticker) {
	defer r.wg.Done()
	defer t.Stop()
	i := 0
	clock.TickLoop(r.ep.Clock(), t, r.stopCh, func(sc *clock.Scope) {
		if peers := r.peers(); len(peers) > 0 {
			r.gossipWith(sc, peers[i%len(peers)])
			i++
			r.replayHints(sc)
		}
	})
}

// GossipWith pulls a peer's digest and merges it (one anti-entropy
// round, callable explicitly from tests).
func (r *Replica) GossipWith(peer netsim.NodeID) {
	r.gossipWith(clock.Root(r.ep.Clock()), peer)
}

func (r *Replica) gossipWith(sc *clock.Scope, peer netsim.NodeID) {
	//neat:allow ambiguity -- read-only digest pull: a missed gossip round is retried on the next tick
	resp, err := r.ep.CallIn(sc, peer, mDigest, nil, r.cfg.RPCTimeout)
	if err != nil {
		return
	}
	digest, ok := resp.(digestResp)
	if !ok {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, vs := range digest {
		r.data[k] = r.reconcile(r.data[k], vs)
	}
}

// replayHints attempts to deliver stored hints.
func (r *Replica) replayHints(sc *clock.Scope) {
	r.mu.Lock()
	pending := r.hints
	r.hints = nil
	r.mu.Unlock()
	var failed []hint
	for _, h := range pending {
		//neat:allow ambiguity -- hint replay is an idempotent version merge; failures simply re-queue
		if _, err := r.ep.CallIn(sc, h.peer, mRepl, h.msg, r.cfg.RPCTimeout); err != nil {
			failed = append(failed, h)
		}
	}
	if len(failed) > 0 {
		r.mu.Lock()
		r.hints = append(r.hints, failed...)
		r.mu.Unlock()
	}
}

// HintCount returns how many hints are queued (for tests).
func (r *Replica) HintCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.hints)
}

// --- bulk sync (the Redis PSYNC-style full transfer) ---

// SyncTo pushes this replica's full store to a peer in per-key chunks.
// If the connection dies mid-transfer, the peer is left with whatever
// arrived — see onSyncEnd for how the two configurations differ.
func (r *Replica) SyncTo(peer netsim.NodeID) error {
	r.mu.Lock()
	type kv struct {
		k  string
		vs []Version
	}
	var chunks []kv
	for k, vs := range r.data {
		chunks = append(chunks, kv{k, append([]Version(nil), vs...)})
	}
	r.mu.Unlock()
	// Transfer in key order: the store is a map, and chunk order is
	// visible on the wire (and in any interrupted partial sync).
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].k < chunks[j].k })

	if _, err := r.ep.Call(peer, mSyncBegin, syncBeginMsg{Total: len(chunks)}, r.cfg.RPCTimeout); err != nil {
		return err
	}
	sent := 0
	for i, c := range chunks {
		if r.cfg.SyncChunkDelay > 0 {
			r.ep.Clock().Sleep(r.cfg.SyncChunkDelay)
		}
		if _, err := r.ep.Call(peer, mSyncChunk, syncChunkMsg{Key: c.k, Versions: c.vs, Index: i}, r.cfg.RPCTimeout); err != nil {
			return err // transfer interrupted
		}
		sent++
	}
	_, err := r.ep.Call(peer, mSyncEnd, syncEndMsg{Sent: sent}, r.cfg.RPCTimeout)
	return err
}

func (r *Replica) onSyncBegin(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(syncBeginMsg)
	if !ok {
		return nil, errors.New("bad sync begin")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncRecv = make(map[string][]Version)
	r.syncExpect = msg.Total
	r.syncGot = 0
	return nil, nil
}

func (r *Replica) onSyncChunk(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(syncChunkMsg)
	if !ok {
		return nil, errors.New("bad sync chunk")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.syncRecv == nil {
		return nil, errors.New("sync not started")
	}
	r.syncRecv[msg.Key] = msg.Versions
	r.syncGot++
	if !r.cfg.AtomicSync {
		// The flawed behaviour: chunks are applied as they arrive. An
		// interrupted transfer leaves a silently inconsistent store —
		// the Redis partial-backlog corruption.
		r.data[msg.Key] = append([]Version(nil), msg.Versions...)
		r.syncApplied++
		if r.syncGot < r.syncExpect {
			r.corrupted = true // provisional: cleared when sync completes
		}
	}
	return nil, nil
}

func (r *Replica) onSyncEnd(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(syncEndMsg)
	if !ok {
		return nil, errors.New("bad sync end")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	complete := msg.Sent == r.syncExpect && r.syncGot == r.syncExpect
	if complete {
		if r.cfg.AtomicSync {
			// Apply atomically now that everything arrived.
			for k, vs := range r.syncRecv {
				r.data[k] = append([]Version(nil), vs...)
			}
		}
		r.corrupted = false
	}
	r.syncRecv = nil
	return nil, nil
}

// Corrupted reports whether a partial bulk sync was applied and never
// completed (cleared when a later sync finishes).
func (r *Replica) Corrupted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.corrupted
}

// SyncProgress reports the state of an inbound bulk sync: chunks
// received and chunks expected (0,0 when no sync is active).
func (r *Replica) SyncProgress() (got, expect int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.syncRecv == nil {
		return 0, 0
	}
	return r.syncGot, r.syncExpect
}

// Keys returns the number of keys stored (for tests).
func (r *Replica) Keys() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.data)
}

// Versions returns the current siblings of a key (for verification).
func (r *Replica) Versions(key string) []Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Version(nil), r.data[key]...)
}
