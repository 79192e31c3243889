// Package jobsched implements a DKron/Chronos-style distributed job
// scheduler: a leader node dispatches job executions to agent nodes
// and records each execution's status in a central data store.
//
// The NEAT-discovered DKron failure (issue #379) is the gap between
// execution and bookkeeping: when a partial partition separates the
// leader from its agents — but not from the data store — the leader
// runs the job locally (it is an agent too), the job genuinely
// executes, and yet the status written to the store says FAILED
// because the agent acknowledgements never arrived. The user is told
// the task failed when it ran: misleading status, and double execution
// if the user retries by hand.
package jobsched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/coord"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// RPC method names.
const (
	mRunJob    = "job.run"
	mExecute   = "job.execute"
	mExecCount = "job.execCount"
)

type runReq struct{ Job string }

type executeReq struct{ Job string }

type execCountReq struct{ Job string }

// StatusSucceeded and StatusFailed are the status strings recorded in
// the central store.
const (
	StatusSucceeded = "succeeded"
	StatusFailed    = "failed"
)

// ErrNotLeader redirects to the scheduling leader.
var ErrNotLeader = errors.New("jobsched: not the leader")

// Config configures the scheduler.
type Config struct {
	// Nodes are the scheduler members; the first is the leader.
	Nodes []netsim.NodeID
	// Store is the central data store (a coord.Service node).
	Store netsim.NodeID
	// QuorumAcks is how many agent acknowledgements the leader wants
	// before declaring an execution successful.
	QuorumAcks int
	// TruthfulStatus is the fix for DKron issue #379's misleading
	// status: the recorded outcome reflects whether the job actually
	// executed (any confirmed execution, the leader's own included)
	// rather than whether an ack quorum was reached. The user is never
	// told "failed" about a job that ran, so a manual retry cannot
	// double-execute it. Off by default — the studied flaw judges by
	// ack count alone.
	TruthfulStatus bool
	// RPCTimeout bounds dispatch calls.
	RPCTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QuorumAcks == 0 {
		c.QuorumAcks = len(c.Nodes)/2 + 1
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	return c
}

// Node is one scheduler member. Every node can execute jobs; the
// leader additionally coordinates and records statuses.
type Node struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint

	mu         sync.Mutex
	executions map[string]int // job -> times executed locally
}

// NewNode creates a scheduler node.
func NewNode(n *netsim.Network, id netsim.NodeID, cfg Config) *Node {
	cfg = cfg.withDefaults()
	nd := &Node{cfg: cfg, id: id, ep: transport.NewEndpoint(n, id), executions: make(map[string]int)}
	nd.ep.DefaultTimeout = cfg.RPCTimeout
	nd.ep.Handle(mRunJob, nd.onRunJob)
	nd.ep.Handle(mExecute, nd.onExecute)
	nd.ep.Handle(mExecCount, nd.onExecCount)
	return nd
}

// ID returns the node's ID.
func (nd *Node) ID() netsim.NodeID { return nd.id }

// Stop detaches the node.
func (nd *Node) Stop() { nd.ep.Close() }

func (nd *Node) isLeader() bool { return len(nd.cfg.Nodes) > 0 && nd.cfg.Nodes[0] == nd.id }

// Executions reports how many times a job ran on this node.
func (nd *Node) Executions(job string) int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.executions[job]
}

func (nd *Node) onExecute(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(executeReq)
	if !ok {
		return nil, errors.New("bad execute")
	}
	nd.mu.Lock()
	nd.executions[req.Job]++
	nd.mu.Unlock()
	return "ok", nil
}

func (nd *Node) onExecCount(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(execCountReq)
	if !ok {
		return nil, errors.New("bad execCount")
	}
	return nd.Executions(req.Job), nil
}

// onRunJob is the leader's dispatch path: execute on every member
// (including itself), then record the outcome in the central store.
// The outcome is judged by acknowledgement count — not by whether the
// job actually ran — which is the DKron flaw.
func (nd *Node) onRunJob(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(runReq)
	if !ok {
		return nil, errors.New("bad run")
	}
	if !nd.isLeader() {
		return nil, ErrNotLeader
	}
	acks := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	clk := nd.ep.Clock()
	sc := nd.ep.DispatchScope()
	for _, member := range nd.cfg.Nodes {
		if member == nd.id {
			// The leader is an agent too and executes in-process — it
			// cannot RPC itself (the request would queue behind this
			// very handler), and its own execution is first-hand
			// knowledge, not an acknowledgement that can be lost.
			nd.mu.Lock()
			nd.executions[req.Job]++
			nd.mu.Unlock()
			acks++
			continue
		}
		member := member
		wg.Add(1)
		// clock.Go accounts each dispatch worker as in-flight work, so a
		// virtual clock cannot advance across the spawn gap; the join
		// parks the handler's scope so the workers' RPC timeouts can fire.
		clock.Go(clk, func(sc *clock.Scope) {
			defer wg.Done()
			//neat:allow ambiguity -- modeled DKron dispatch: only acked executes count; the maybe-executed gap is the reproduced double-run
			if _, err := nd.ep.CallIn(sc, member, mExecute, executeReq{Job: req.Job}, nd.cfg.RPCTimeout); err == nil {
				mu.Lock()
				acks++
				mu.Unlock()
			}
		})
	}
	sc.Idle(wg.Wait)

	status := StatusSucceeded
	if nd.cfg.TruthfulStatus {
		// The fix: the status records what actually happened — failed
		// only if the job verifiably ran nowhere. While the leader
		// co-hosts an agent that branch is unreachable (its own
		// in-process execution is always evidence), which is the point:
		// the user is never told "failed" about work that was done, and
		// never retries it into double execution.
		if acks == 0 {
			status = StatusFailed
		}
	} else if acks < nd.cfg.QuorumAcks {
		status = StatusFailed
	}
	// Record in the central store — reachable even when the agents
	// are not, which is exactly how the misleading status is born.
	_ = coord.Put(sc, nd.ep, nd.cfg.Store, "/jobs/"+req.Job, status, nd.cfg.RPCTimeout)
	if status == StatusFailed {
		return status, fmt.Errorf("jobsched: job %s: only %d of %d acks", req.Job, acks, nd.cfg.QuorumAcks)
	}
	return status, nil
}

// Client triggers jobs and inspects recorded statuses.
type Client struct {
	cfg     Config
	ep      *transport.Endpoint
	timeout time.Duration
}

// NewClient attaches a scheduler client.
func NewClient(n *netsim.Network, id netsim.NodeID, cfg Config) *Client {
	return &Client{cfg: cfg.withDefaults(), ep: transport.NewEndpoint(n, id), timeout: 150 * time.Millisecond}
}

// ID returns the client's node ID.
func (c *Client) ID() netsim.NodeID { return c.ep.ID() }

// Close detaches the client.
func (c *Client) Close() { c.ep.Close() }

// Run triggers a job on the leader and returns the status the leader
// reported. A transport-level failure is marked maybe-executed: the
// leader can have dispatched (and run) the job with only the reply
// lost.
func (c *Client) Run(job string) (string, error) {
	resp, err := c.ep.Call(c.cfg.Nodes[0], mRunJob, runReq{Job: job}, c.timeout)
	s, _ := resp.(string)
	if err != nil && !transport.IsRemote(err) {
		return s, transport.MarkMaybeExecuted(err)
	}
	return s, err
}

// ExecutionsOn asks one scheduler member how many times it executed a
// job — the per-node observation the exactly-once checker judges.
func (c *Client) ExecutionsOn(node netsim.NodeID, job string) (int, error) {
	resp, err := c.ep.Call(node, mExecCount, execCountReq{Job: job}, c.timeout)
	if err != nil {
		return 0, err
	}
	n, _ := resp.(int)
	return n, nil
}

// RecordedStatus reads the job status from the central store.
func (c *Client) RecordedStatus(job string) (string, error) {
	return coord.Get(clock.Root(c.ep.Clock()), c.ep, c.cfg.Store, "/jobs/"+job, c.timeout)
}

// MaybeExecuted reports whether a failed operation may nevertheless
// have been applied — the ambiguity classification the history
// checkers consume.
func MaybeExecuted(err error) bool { return transport.MaybeExecuted(err) }
