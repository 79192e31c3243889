// Package dfs implements an HDFS/MooseFS-style distributed file
// system: a NameNode holding the namespace and block locations,
// DataNodes storing chunks and reporting liveness by heartbeat, and a
// pipeline-writing client.
//
// Three studied failures live here:
//
//   - HDFS-1384: rack-aware placement keeps suggesting DataNodes from
//     the same rack the client cannot reach across a partial partition;
//     the client gives up after five attempts.
//   - HDFS-577: a simplex partition lets a DataNode send heartbeats but
//     not receive requests, so the NameNode keeps scheduling work onto a
//     node nobody can use.
//   - MooseFS #131/#132: a partial partition between the client and a
//     chunk server makes the file system look inconsistent to the
//     client — the metadata says the file exists, but reads fail.
package dfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// RPC method names.
const (
	mAllocate  = "dfs.allocate"
	mCommit    = "dfs.commit"
	mLocations = "dfs.locations"
	mHealth    = "dfs.health"
	mHeartbeat = "dfs.heartbeat"
	mStore     = "dfs.store"
	mFetch     = "dfs.fetch"
)

type allocateReq struct {
	File     string
	Excluded []netsim.NodeID
}

type commitReq struct {
	File string
	Node netsim.NodeID
	// Ver is the client-assigned write version. Commits install the
	// version's replica set atomically: a newer version replaces the
	// older one's locations, and a stale commit arriving late (a delayed
	// or retried packet) is ignored, so a reordered pipeline cannot
	// resurrect overwritten locations.
	Ver uint64
}

type locationsReq struct{ File string }

// locationsResp carries the committed replica set and the version the
// reader must fetch, so reads can never observe the staged chunks of an
// uncommitted (possibly failed) pipeline write.
type locationsResp struct {
	Nodes []netsim.NodeID
	Ver   uint64
}

type hbMsg struct{ Node netsim.NodeID }

type storeReq struct {
	File string
	Ver  uint64
	Data string
	// Sum is the client-computed end-to-end checksum of Data. It is
	// stored verbatim beside whatever bytes actually hit the disk, so a
	// torn write (bytes truncated after the ack) is detectable by any
	// reader that bothers to verify — HDFS's client-side block
	// checksum.
	Sum uint32
}

// fetchResp returns the stored bytes with the checksum recorded at
// store time. A torn replica returns truncated bytes under the original
// checksum; only checksum-verifying clients notice.
type fetchResp struct {
	Data string
	Sum  uint32
}

type fetchReq struct {
	File string
	Ver  uint64
}

// ErrNoDataNodes is returned when allocation cannot find a candidate.
var ErrNoDataNodes = errors.New("dfs: no datanode available")

// ErrNotFound is returned for unknown files.
var ErrNotFound = errors.New("dfs: file not found")

// ErrWriteFailed is returned when the client exhausts its placement
// retries — the HDFS-1384 give-up-after-five behaviour.
var ErrWriteFailed = errors.New("dfs: write failed after placement retries")

// ErrCorrupt is returned when a fetched chunk fails checksum
// verification — the client-visible face of a torn disk write.
var ErrCorrupt = errors.New("dfs: chunk checksum mismatch")

// MaxPlacementRetries is HDFS's pipeline-recovery retry budget ("the
// process repeats five times before the client gives up").
const MaxPlacementRetries = 5

// checksum is the end-to-end chunk checksum (FNV-1a over the bytes).
func checksum(data string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(data))
	return h.Sum32()
}

// Config configures the file system.
type Config struct {
	// NameNode is the metadata server's node.
	NameNode netsim.NodeID
	// Racks maps each DataNode to its rack.
	Racks map[netsim.NodeID]string
	// CrossRackRetry makes allocation switch racks once a node from a
	// rack has been excluded — the fix for HDFS-1384. Off by default:
	// rack-aware placement prefers the rack it already chose.
	CrossRackRetry bool
	// HeartbeatInterval is the DataNode liveness period.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is missed periods before a DataNode is dead.
	HeartbeatMisses int
	// RPCTimeout bounds data-path calls.
	RPCTimeout time.Duration
	// ReplicaCount is how many DataNodes a Write must commit to before
	// acknowledging. The default 1 is the flawed single-replica
	// pipeline: one torn or lost disk loses the acknowledged data. The
	// safe variant sets 2, so a durability claim survives any single
	// disk fault.
	ReplicaCount int
	// VerifyChecksums makes reads verify each replica's end-to-end
	// checksum, skip corrupt replicas, and read-repair them from a good
	// copy — the hardening that turns a torn disk write from a silent
	// dirty read into a recovered replica.
	VerifyChecksums bool
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 10 * time.Millisecond
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = 3
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	if c.ReplicaCount == 0 {
		c.ReplicaCount = 1
	}
	return c
}

// DataNodes returns the configured DataNode IDs in sorted order.
func (c Config) DataNodes() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(c.Racks))
	for id := range c.Racks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------
// NameNode
// ---------------------------------------------------------------------

// fileEntry is one committed file: the replica set of its newest
// committed version.
type fileEntry struct {
	ver   uint64
	nodes []netsim.NodeID
}

// NameNode is the metadata server.
type NameNode struct {
	cfg Config
	ep  *transport.Endpoint
	clk clock.Clock

	mu        sync.Mutex
	lastHeard map[netsim.NodeID]time.Time
	files     map[string]*fileEntry // file -> newest committed version
	stopped   bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewNameNode creates the NameNode, unstarted.
func NewNameNode(n *netsim.Network, cfg Config) *NameNode {
	cfg = cfg.withDefaults()
	nn := &NameNode{
		cfg:       cfg,
		ep:        transport.NewEndpoint(n, cfg.NameNode),
		clk:       n.ClockFor(cfg.NameNode),
		lastHeard: make(map[netsim.NodeID]time.Time),
		files:     make(map[string]*fileEntry),
		stopCh:    make(chan struct{}),
	}
	now := nn.clk.Now()
	for id := range cfg.Racks {
		nn.lastHeard[id] = now
	}
	nn.ep.DefaultTimeout = cfg.RPCTimeout
	nn.ep.Handle(mAllocate, nn.onAllocate)
	nn.ep.Handle(mCommit, nn.onCommit)
	nn.ep.Handle(mLocations, nn.onLocations)
	nn.ep.Handle(mHealth, nn.onHealth)
	nn.ep.Handle(mHeartbeat, nn.onHeartbeat)
	return nn
}

// Start is a no-op (the NameNode is passive); present for symmetry.
func (nn *NameNode) Start() {}

// Stop detaches the NameNode.
func (nn *NameNode) Stop() {
	nn.mu.Lock()
	if nn.stopped {
		nn.mu.Unlock()
		return
	}
	nn.stopped = true
	nn.mu.Unlock()
	close(nn.stopCh)
	nn.wg.Wait()
	nn.ep.Close()
}

func (nn *NameNode) healthyLocked() []netsim.NodeID {
	cutoff := time.Duration(nn.cfg.HeartbeatMisses) * nn.cfg.HeartbeatInterval
	now := nn.clk.Now()
	var out []netsim.NodeID
	for _, id := range nn.cfg.DataNodes() {
		if now.Sub(nn.lastHeard[id]) <= cutoff {
			out = append(out, id)
		}
	}
	return out
}

// Healthy returns the DataNodes the NameNode currently believes are
// alive. Under a simplex partition this includes nodes that cannot
// actually serve anything (HDFS-577).
func (nn *NameNode) Healthy() []netsim.NodeID {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.healthyLocked()
}

func (nn *NameNode) onHeartbeat(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(hbMsg)
	if !ok {
		return nil, errors.New("bad heartbeat")
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.lastHeard[msg.Node] = nn.clk.Now()
	return nil, nil
}

// onAllocate picks a DataNode for a write. The flawed rack-aware
// policy sticks with the rack of its first (healthy, lowest-ID)
// choice, even when the client has excluded nodes from that rack.
func (nn *NameNode) onAllocate(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(allocateReq)
	if !ok {
		return nil, errors.New("bad allocate")
	}
	excluded := make(map[netsim.NodeID]bool, len(req.Excluded))
	for _, id := range req.Excluded {
		excluded[id] = true
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	healthy := nn.healthyLocked()
	if len(healthy) == 0 {
		return nil, ErrNoDataNodes
	}
	var candidates []netsim.NodeID
	if nn.cfg.CrossRackRetry && len(req.Excluded) > 0 {
		// Fixed behaviour: after a reported failure, avoid the racks
		// of every excluded node entirely.
		badRacks := make(map[string]bool)
		for id := range excluded {
			badRacks[nn.cfg.Racks[id]] = true
		}
		for _, id := range healthy {
			if !excluded[id] && !badRacks[nn.cfg.Racks[id]] {
				candidates = append(candidates, id)
			}
		}
	} else {
		// Flawed behaviour: pick the preferred rack (that of the first
		// healthy node) and only offer nodes from it.
		prefRack := nn.cfg.Racks[healthy[0]]
		for _, id := range healthy {
			if !excluded[id] && nn.cfg.Racks[id] == prefRack {
				candidates = append(candidates, id)
			}
		}
		// HDFS-1384: "will likely suggest another node from the same
		// rack". If the whole preferred rack is excluded, it keeps
		// suggesting excluded-rack nodes' peers — i.e. nothing else —
		// so allocation fails only when the rack is exhausted of
		// distinct nodes; then it re-offers excluded ones.
		if len(candidates) == 0 {
			for _, id := range healthy {
				if nn.cfg.Racks[id] == prefRack {
					candidates = append(candidates, id)
				}
			}
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoDataNodes
	}
	return candidates[0], nil
}

func (nn *NameNode) onCommit(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(commitReq)
	if !ok {
		return nil, errors.New("bad commit")
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e := nn.files[req.File]
	switch {
	case e == nil || req.Ver > e.ver:
		nn.files[req.File] = &fileEntry{ver: req.Ver, nodes: []netsim.NodeID{req.Node}}
	case req.Ver == e.ver:
		e.nodes = append(e.nodes, req.Node)
	default:
		// Stale commit (delayed packet of an older write): ignore.
	}
	return nil, nil
}

func (nn *NameNode) onLocations(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(locationsReq)
	if !ok {
		return nil, errors.New("bad locations")
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	e, exists := nn.files[req.File]
	if !exists {
		return nil, ErrNotFound
	}
	return locationsResp{Nodes: append([]netsim.NodeID(nil), e.nodes...), Ver: e.ver}, nil
}

func (nn *NameNode) onHealth(netsim.NodeID, any) (any, error) {
	return nn.Healthy(), nil
}

// ---------------------------------------------------------------------
// DataNode
// ---------------------------------------------------------------------

// chunkData is one stored chunk version: the bytes that actually made
// it to disk plus the checksum recorded from the writer's request.
// Under a torn-write fault the two disagree.
type chunkData struct {
	data string
	sum  uint32
}

// Disk-fault modes for SetDiskFault.
const (
	// DiskLost acks stores without persisting anything: the bytes are
	// simply gone at read time (a write-back cache that never flushed).
	DiskLost = "lost"
	// DiskTorn acks stores but truncates the bytes, keeping the
	// writer's checksum — a partial sector write behind a successful
	// ack.
	DiskTorn = "torn"
)

// DataNode stores chunks and heartbeats the NameNode.
type DataNode struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint

	mu       sync.Mutex
	chunks   map[string]chunkData
	diskMode string // "", DiskLost, or DiskTorn
	stopped  bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewDataNode creates a DataNode, unstarted.
func NewDataNode(n *netsim.Network, id netsim.NodeID, cfg Config) *DataNode {
	cfg = cfg.withDefaults()
	dn := &DataNode{
		cfg:    cfg,
		id:     id,
		ep:     transport.NewEndpoint(n, id),
		chunks: make(map[string]chunkData),
		stopCh: make(chan struct{}),
	}
	dn.ep.DefaultTimeout = cfg.RPCTimeout
	dn.ep.Handle(mStore, dn.onStore)
	dn.ep.Handle(mFetch, dn.onFetch)
	return dn
}

// ID returns the DataNode's node ID.
func (dn *DataNode) ID() netsim.NodeID { return dn.id }

// Start launches the heartbeat loop. The ticker is created here, on
// the deploying goroutine, so that under a virtual clock the timer
// creation order follows deployment order (the determinism rule).
func (dn *DataNode) Start() {
	dn.wg.Add(1)
	t := dn.ep.Clock().NewTicker(dn.cfg.HeartbeatInterval)
	go dn.heartbeatLoop(t)
}

// Stop halts the DataNode.
func (dn *DataNode) Stop() {
	dn.mu.Lock()
	if dn.stopped {
		dn.mu.Unlock()
		return
	}
	dn.stopped = true
	dn.mu.Unlock()
	close(dn.stopCh)
	dn.wg.Wait()
	dn.ep.Close()
}

func (dn *DataNode) heartbeatLoop(t clock.Ticker) {
	defer dn.wg.Done()
	defer t.Stop()
	clock.TickLoop(dn.ep.Clock(), t, dn.stopCh, func(*clock.Scope) {
		_ = dn.ep.Notify(dn.cfg.NameNode, mHeartbeat, hbMsg{Node: dn.id})
	})
}

// chunkKey names one stored chunk version. Chunks are immutable once
// written — a pipeline write stages its data under its own version, so
// readers of the committed version can never observe the bytes of an
// uncommitted (possibly abandoned) write.
func chunkKey(file string, ver uint64) string { return fmt.Sprintf("%s#%d", file, ver) }

// SetDiskFault installs (mode DiskLost or DiskTorn) or clears (mode "")
// a disk fault: subsequent stores ack as usual, but the bytes are lost
// or torn. The fault is invisible at store time — exactly the
// acknowledged-then-gone write the paper's durability findings hinge
// on — and only surfaces when a reader fetches the chunk.
func (dn *DataNode) SetDiskFault(mode string) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.diskMode = mode
}

func (dn *DataNode) onStore(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(storeReq)
	if !ok {
		return nil, errors.New("bad store")
	}
	dn.mu.Lock()
	defer dn.mu.Unlock()
	switch dn.diskMode {
	case DiskLost:
		// Ack without persisting: the chunk never reaches disk.
	case DiskTorn:
		dn.chunks[chunkKey(req.File, req.Ver)] = chunkData{
			data: req.Data[:len(req.Data)/2], sum: req.Sum}
	default:
		dn.chunks[chunkKey(req.File, req.Ver)] = chunkData{data: req.Data, sum: req.Sum}
	}
	return nil, nil
}

func (dn *DataNode) onFetch(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(fetchReq)
	if !ok {
		return nil, errors.New("bad fetch")
	}
	dn.mu.Lock()
	defer dn.mu.Unlock()
	c, exists := dn.chunks[chunkKey(req.File, req.Ver)]
	if !exists {
		return nil, ErrNotFound
	}
	return fetchResp{Data: c.data, Sum: c.sum}, nil
}

// HasChunk reports whether the DataNode stores any version of the file
// (for tests).
func (dn *DataNode) HasChunk(file string) bool {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	prefix := file + "#"
	for key := range dn.chunks {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

// Client writes and reads files.
type Client struct {
	cfg     Config
	ep      *transport.Endpoint
	timeout time.Duration

	mu       sync.Mutex
	attempts int    // placement attempts used by the last Write
	ver      uint64 // monotonically increasing write version
}

// NewClient attaches a DFS client.
func NewClient(n *netsim.Network, id netsim.NodeID, cfg Config) *Client {
	return &Client{cfg: cfg.withDefaults(), ep: transport.NewEndpoint(n, id), timeout: 100 * time.Millisecond}
}

// ID returns the client's node ID.
func (c *Client) ID() netsim.NodeID { return c.ep.ID() }

// Close detaches the client.
func (c *Client) Close() { c.ep.Close() }

// LastWriteAttempts reports how many placement attempts the most
// recent Write used — the observable performance degradation of
// HDFS-1384 and HDFS-577.
func (c *Client) LastWriteAttempts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// NewVersion assigns the next write version. A pipeline write stages
// and commits under one version, so stale or abandoned pipelines can
// never shadow a newer committed write. The low bits carry a salt
// derived from the client's node ID so distinct clients' counters do
// not mint equal versions — concurrent writers produce distinct
// versions whose order the NameNode resolves, rather than a merged
// replica set with divergent data.
func (c *Client) NewVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ver++
	h := fnv.New32a()
	h.Write([]byte(c.ep.ID()))
	return c.ver<<16 | uint64(h.Sum32()&0xffff)
}

// Allocate asks the NameNode for a DataNode to place a chunk on,
// reporting the nodes the client already found unreachable.
func (c *Client) Allocate(file string, excluded []netsim.NodeID) (netsim.NodeID, error) {
	resp, err := c.ep.Call(c.cfg.NameNode, mAllocate, allocateReq{File: file, Excluded: excluded}, c.timeout)
	if err != nil {
		return "", err
	}
	node, _ := resp.(netsim.NodeID)
	return node, nil
}

// Store pushes one version of a chunk to a DataNode, stamped with its
// end-to-end checksum.
func (c *Client) Store(node netsim.NodeID, file string, ver uint64, data string) error {
	_, err := c.ep.Call(node, mStore,
		storeReq{File: file, Ver: ver, Data: data, Sum: checksum(data)}, c.timeout)
	return err
}

// Commit records the stored replica at the NameNode, making the
// version readable. A transport failure is marked maybe-executed: the
// commit can have been applied with only the reply lost — the partial
// pipeline write whose ambiguity the history checkers account for.
func (c *Client) Commit(file string, node netsim.NodeID, ver uint64) error {
	if _, err := c.ep.Call(c.cfg.NameNode, mCommit, commitReq{File: file, Node: node, Ver: ver}, c.timeout); err != nil {
		return transport.MarkMaybeExecuted(fmt.Errorf("dfs: commit: %w", err))
	}
	return nil
}

// Locations resolves the committed replica set and version of a file.
func (c *Client) Locations(file string) ([]netsim.NodeID, uint64, error) {
	resp, err := c.ep.Call(c.cfg.NameNode, mLocations, locationsReq{File: file}, c.timeout)
	if err != nil {
		return nil, 0, err
	}
	lr, _ := resp.(locationsResp)
	return lr.Nodes, lr.Ver, nil
}

// Fetch reads one version of a chunk from a DataNode. When the client
// verifies checksums, a replica whose stored bytes do not match the
// checksum recorded at store time returns ErrCorrupt instead of the
// torn data.
func (c *Client) Fetch(node netsim.NodeID, file string, ver uint64) (string, error) {
	resp, err := c.ep.Call(node, mFetch, fetchReq{File: file, Ver: ver}, c.timeout)
	if err != nil {
		return "", err
	}
	fr, _ := resp.(fetchResp)
	if c.cfg.VerifyChecksums && checksum(fr.Data) != fr.Sum {
		return "", fmt.Errorf("%w: node %s file %s", ErrCorrupt, node, file)
	}
	return fr.Data, nil
}

// Write stores a file: ask the NameNode for a DataNode, push the
// chunk, report failures, retry with exclusions up to the budget.
// With ReplicaCount > 1 the pipeline repeats until that many distinct
// replicas are stored and committed; an acknowledgment then means the
// data survives any single replica's disk. A write that committed some
// but not all of its replicas is reported ambiguous, not successful —
// the data may be readable, but the durability contract was not met.
func (c *Client) Write(file, data string) error {
	var excluded []netsim.NodeID
	attempts := 0
	ver := c.NewVersion()
	defer func() {
		c.mu.Lock()
		c.attempts = attempts
		c.mu.Unlock()
	}()
	committed := 0
	var allocErr error
	for attempts < MaxPlacementRetries && committed < c.cfg.ReplicaCount {
		attempts++
		node, err := c.Allocate(file, excluded)
		if err != nil {
			allocErr = fmt.Errorf("dfs: allocate: %w", err)
			break
		}
		if err := c.Store(node, file, ver, data); err != nil {
			// Unreachable DataNode: exclude it and ask again.
			excluded = append(excluded, node)
			continue
		}
		if err := c.Commit(file, node, ver); err != nil {
			// The commit may have been applied with only the reply
			// lost: the write as a whole is ambiguous.
			return err
		}
		committed++
		// A placed replica is excluded from further allocation so the
		// remaining replicas land on distinct nodes (distinct racks,
		// under the cross-rack policy).
		excluded = append(excluded, node)
	}
	switch {
	case committed >= c.cfg.ReplicaCount:
		return nil
	case committed > 0:
		// Partially replicated: readable, but not durably placed.
		return transport.MarkMaybeExecuted(
			fmt.Errorf("dfs: %w (committed %d of %d replicas)", ErrWriteFailed, committed, c.cfg.ReplicaCount))
	case allocErr != nil:
		return allocErr
	default:
		return ErrWriteFailed
	}
}

// ErrUnreachable is returned by Read when the namespace lists the file
// but no replica could serve its data — the client-visible
// inconsistency of MooseFS #131/#132.
var ErrUnreachable = errors.New("dfs: all replicas unreachable")

// Read fetches a file by resolving its locations at the NameNode and
// trying each replica. A checksum-verifying client skips corrupt and
// missing replicas and, once a good copy is found, read-repairs the bad
// ones from it — so one torn disk degrades a replica only until the
// next read touches it.
func (c *Client) Read(file string) (string, error) {
	locs, ver, err := c.Locations(file)
	if err != nil {
		return "", err
	}
	var lastErr error = ErrNotFound
	var bad []netsim.NodeID
	for _, node := range locs {
		data, err := c.Fetch(node, file, ver)
		if err == nil {
			if c.cfg.VerifyChecksums {
				for _, b := range bad {
					_ = c.Store(b, file, ver, data) // best-effort repair
				}
			}
			return data, nil
		}
		bad = append(bad, node)
		lastErr = err
	}
	return "", fmt.Errorf("%w: %w", ErrUnreachable, lastErr)
}

// Health asks the NameNode which DataNodes it believes are alive.
func (c *Client) Health() ([]netsim.NodeID, error) {
	resp, err := c.ep.Call(c.cfg.NameNode, mHealth, nil, c.timeout)
	if err != nil {
		return nil, err
	}
	ids, _ := resp.([]netsim.NodeID)
	return ids, nil
}

// IsWriteFailed reports whether err is the exhausted-retries failure.
func IsWriteFailed(err error) bool {
	if errors.Is(err, ErrWriteFailed) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == ErrWriteFailed.Error()
}

// IsNotFound reports whether err is the namespace's authoritative
// "no such file" answer (locally or from the NameNode).
func IsNotFound(err error) bool {
	if errors.Is(err, ErrUnreachable) {
		// Replicas were listed; whatever the last fetch said, the
		// namespace asserted existence.
		return false
	}
	if errors.Is(err, ErrNotFound) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && re.Msg == ErrNotFound.Error()
}

// IsUnreachable reports whether err is the metadata-says-exists but
// data-unreachable read failure (MooseFS #131/#132).
func IsUnreachable(err error) bool { return errors.Is(err, ErrUnreachable) }

// MaybeExecuted reports whether a failed operation may nevertheless
// have been applied: any transport-level attempt (the request can have
// executed with only the reply lost), including the partial pipeline
// commit Write marks explicitly.
func MaybeExecuted(err error) bool { return transport.MaybeExecuted(err) }
