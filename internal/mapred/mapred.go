// Package mapred implements a MapReduce-style execution framework with
// the Hadoop/YARN control plane the paper studies: a ResourceManager
// that starts an ApplicationMaster for each submitted job, AppMasters
// that launch task containers on worker nodes and stream results to
// the client, and AppMaster heartbeats that let the ResourceManager
// detect (apparent) AppMaster death.
//
// Figure 3's failure is a design flaw reproduced here faithfully
// (MAPREDUCE-4819): when a partial partition isolates the AppMaster
// from the ResourceManager — while both still reach the workers and
// the client — the ResourceManager declares the AppMaster dead and
// starts a second attempt, while the first attempt keeps executing and
// reporting results. The user receives the job output twice, with no
// client interaction after the partition at all.
package mapred

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

// RPC method names.
const (
	mSubmit    = "mr.submit"
	mStartAM   = "mr.startAM"
	mAMBeat    = "mr.amHeartbeat"
	mComplete  = "mr.jobComplete"
	mContainer = "mr.runContainer"
	mResult    = "mr.result"
	mJobStatus = "mr.jobStatus"
)

type submitReq struct {
	JobID  string
	Tasks  int
	Client netsim.NodeID
}

type startAMReq struct {
	JobID   string
	Attempt int
	Tasks   int
	Client  netsim.NodeID
}

type amBeatMsg struct {
	JobID   string
	Attempt int
}

type completeMsg struct {
	JobID   string
	Attempt int
}

type containerReq struct {
	JobID   string
	Attempt int
	Task    int
}

// Result is one task output delivered to the submitting client.
type Result struct {
	JobID   string
	Attempt int
	Task    int
	Output  string
	Final   bool // true for the job-done notification
}

type jobStatusReq struct{ JobID string }

// JobState is the ResourceManager's view of a job.
type JobState struct {
	JobID     string
	Attempt   int
	AMNode    netsim.NodeID
	Completed bool
}

// Config configures the framework.
type Config struct {
	// RM is the ResourceManager node.
	RM netsim.NodeID
	// Workers host AppMasters and containers.
	Workers []netsim.NodeID
	// AMHeartbeat is the AppMaster -> RM heartbeat period.
	AMHeartbeat time.Duration
	// AMMisses is how many missed heartbeats the RM tolerates before
	// starting a new AppMaster attempt.
	AMMisses int
	// TaskDuration is how long one container takes.
	TaskDuration time.Duration
	// RPCTimeout bounds control-plane calls.
	RPCTimeout time.Duration
	// FencedCompletion is the fix for MAPREDUCE-4819's user-visible
	// double execution: the AppMaster reports completion to the
	// ResourceManager FIRST — which fences stale attempts and rejects a
	// second completion — and notifies the user only if the RM accepted
	// it. Off by default: the studied flaw tells the user "done" before
	// (and regardless of) the RM.
	FencedCompletion bool
}

func (c Config) withDefaults() Config {
	if c.AMHeartbeat == 0 {
		c.AMHeartbeat = 10 * time.Millisecond
	}
	if c.AMMisses == 0 {
		c.AMMisses = 3
	}
	if c.TaskDuration == 0 {
		c.TaskDuration = 20 * time.Millisecond
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 30 * time.Millisecond
	}
	return c
}

// ---------------------------------------------------------------------
// ResourceManager
// ---------------------------------------------------------------------

type rmJob struct {
	jobID     string
	tasks     int
	client    netsim.NodeID
	attempt   int
	amNode    netsim.NodeID
	lastBeat  time.Time
	completed bool
}

// ResourceManager tracks jobs and replaces AppMasters it believes dead.
type ResourceManager struct {
	cfg Config
	ep  *transport.Endpoint
	clk clock.Clock

	mu      sync.Mutex
	jobs    map[string]*rmJob
	nextWkr int
	stopped bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewResourceManager creates the RM, unstarted.
func NewResourceManager(n *netsim.Network, cfg Config) *ResourceManager {
	cfg = cfg.withDefaults()
	rm := &ResourceManager{
		cfg:    cfg,
		ep:     transport.NewEndpoint(n, cfg.RM),
		clk:    n.Clock(),
		jobs:   make(map[string]*rmJob),
		stopCh: make(chan struct{}),
	}
	rm.ep.DefaultTimeout = cfg.RPCTimeout
	rm.ep.Handle(mSubmit, rm.onSubmit)
	rm.ep.Handle(mAMBeat, rm.onAMBeat)
	rm.ep.Handle(mComplete, rm.onComplete)
	rm.ep.Handle(mJobStatus, rm.onJobStatus)
	return rm
}

// Start launches the AppMaster liveness monitor. The ticker is
// created here, on the deploying goroutine, so timer creation order
// follows deployment order under a virtual clock.
func (rm *ResourceManager) Start() {
	rm.wg.Add(1)
	t := rm.ep.Clock().NewTicker(rm.cfg.AMHeartbeat)
	go rm.monitorLoop(t)
}

// Stop halts the RM.
func (rm *ResourceManager) Stop() {
	rm.mu.Lock()
	if rm.stopped {
		rm.mu.Unlock()
		return
	}
	rm.stopped = true
	rm.mu.Unlock()
	close(rm.stopCh)
	rm.wg.Wait()
	rm.ep.Close()
}

func (rm *ResourceManager) onSubmit(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(submitReq)
	if !ok {
		return nil, errors.New("bad submit")
	}
	rm.mu.Lock()
	if _, dup := rm.jobs[req.JobID]; dup {
		rm.mu.Unlock()
		return nil, fmt.Errorf("mapred: job %s already submitted", req.JobID)
	}
	j := &rmJob{
		jobID: req.JobID, tasks: req.Tasks, client: req.Client,
		attempt: 1, lastBeat: rm.clk.Now(),
	}
	rm.jobs[req.JobID] = j
	am := rm.pickWorkerLocked()
	j.amNode = am
	rm.mu.Unlock()

	// Start the AppMaster (Figure 3.a step 2). Submission is accepted
	// regardless: the job is registered, and if this first launch fails
	// the liveness monitor will start a fresh attempt — so an
	// acknowledged submission always runs, and the acknowledgement
	// never lies about a job that will execute anyway.
	//neat:allow ambiguity -- safe to drop: the liveness monitor restarts any attempt that never beats
	_, _ = rm.ep.CallIn(rm.ep.DispatchScope(), am, mStartAM, startAMReq{
		JobID: req.JobID, Attempt: 1, Tasks: req.Tasks, Client: req.Client,
	}, rm.cfg.RPCTimeout)
	return nil, nil
}

func (rm *ResourceManager) pickWorkerLocked() netsim.NodeID {
	w := rm.cfg.Workers[rm.nextWkr%len(rm.cfg.Workers)]
	rm.nextWkr++
	return w
}

func (rm *ResourceManager) onAMBeat(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(amBeatMsg)
	if !ok {
		return nil, errors.New("bad AM heartbeat")
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if j, exists := rm.jobs[msg.JobID]; exists && j.attempt == msg.Attempt {
		j.lastBeat = rm.clk.Now()
	}
	return nil, nil
}

func (rm *ResourceManager) onComplete(from netsim.NodeID, body any) (any, error) {
	msg, ok := body.(completeMsg)
	if !ok {
		return nil, errors.New("bad complete")
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	j, exists := rm.jobs[msg.JobID]
	if !exists {
		return nil, fmt.Errorf("mapred: unknown job %s", msg.JobID)
	}
	if rm.cfg.FencedCompletion {
		// Fencing: only the current attempt may complete the job, and
		// only once. A superseded attempt (its heartbeats were lost, a
		// replacement was started) learns here that it must not tell
		// the user anything.
		if j.completed {
			return nil, fmt.Errorf("mapred: job %s already completed", msg.JobID)
		}
		if j.attempt != msg.Attempt {
			return nil, fmt.Errorf("mapred: job %s attempt %d superseded by %d", msg.JobID, msg.Attempt, j.attempt)
		}
	}
	j.completed = true
	return nil, nil
}

func (rm *ResourceManager) onJobStatus(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(jobStatusReq)
	if !ok {
		return nil, errors.New("bad status request")
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	j, exists := rm.jobs[req.JobID]
	if !exists {
		return nil, fmt.Errorf("mapred: unknown job %s", req.JobID)
	}
	return JobState{JobID: j.jobID, Attempt: j.attempt, AMNode: j.amNode, Completed: j.completed}, nil
}

// monitorLoop restarts AppMasters whose heartbeats stopped. An
// unreachable AppMaster is indistinguishable from a dead one — the
// assumption Figure 3 exploits.
func (rm *ResourceManager) monitorLoop(t clock.Ticker) {
	defer rm.wg.Done()
	defer t.Stop()
	clock.TickLoop(rm.ep.Clock(), t, rm.stopCh, rm.checkAMs)
}

func (rm *ResourceManager) checkAMs(sc *clock.Scope) {
	cutoff := time.Duration(rm.cfg.AMMisses) * rm.cfg.AMHeartbeat
	type restart struct {
		job *rmJob
		req startAMReq
		am  netsim.NodeID
	}
	var restarts []restart
	now := rm.clk.Now()
	rm.mu.Lock()
	// Sorted iteration: map order must not decide which job gets the
	// next worker, or same-seed campaigns diverge.
	jobIDs := make([]string, 0, len(rm.jobs))
	for id := range rm.jobs {
		jobIDs = append(jobIDs, id)
	}
	sort.Strings(jobIDs)
	for _, id := range jobIDs {
		j := rm.jobs[id]
		if j.completed || now.Sub(j.lastBeat) <= cutoff {
			continue
		}
		// The AM looks dead: start a new attempt on the next worker.
		j.attempt++
		j.lastBeat = now
		j.amNode = rm.pickWorkerLocked()
		restarts = append(restarts, restart{
			job: j,
			am:  j.amNode,
			req: startAMReq{JobID: j.jobID, Attempt: j.attempt, Tasks: j.tasks, Client: j.client},
		})
	}
	rm.mu.Unlock()
	for _, r := range restarts {
		//neat:allow ambiguity -- AM restart is fire-and-forget; the monitor re-fires until an attempt beats
		_, _ = rm.ep.CallIn(sc, r.am, mStartAM, r.req, rm.cfg.RPCTimeout)
	}
}

// ---------------------------------------------------------------------
// Worker (hosts AppMasters and containers)
// ---------------------------------------------------------------------

// Worker executes containers and hosts AppMaster instances.
type Worker struct {
	cfg Config
	id  netsim.NodeID
	ep  *transport.Endpoint

	mu      sync.Mutex
	stopped bool
	wg      sync.WaitGroup
}

// NewWorker creates a worker, ready immediately.
func NewWorker(n *netsim.Network, id netsim.NodeID, cfg Config) *Worker {
	cfg = cfg.withDefaults()
	w := &Worker{cfg: cfg, id: id, ep: transport.NewEndpoint(n, id)}
	w.ep.DefaultTimeout = cfg.RPCTimeout
	w.ep.Handle(mStartAM, w.onStartAM)
	w.ep.Handle(mContainer, w.onRunContainer)
	return w
}

// ID returns the worker's node ID.
func (w *Worker) ID() netsim.NodeID { return w.id }

// Stop halts the worker after in-flight AppMasters finish. The join
// parks the caller's root scope so a virtual clock can keep advancing
// while AppMasters parked in clock waits (task durations, RPC
// timeouts) run to completion.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	clock.Root(w.ep.Clock()).Idle(w.wg.Wait)
	w.ep.Close()
}

func (w *Worker) onStartAM(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(startAMReq)
	if !ok {
		return nil, errors.New("bad startAM")
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil, errors.New("worker stopped")
	}
	w.wg.Add(1)
	w.mu.Unlock()
	// clock.Go accounts the AppMaster goroutine as in-flight work from
	// the instant of the spawn, so a virtual clock cannot advance past
	// the gap between this handler returning and the AM's first action.
	clock.Go(w.ep.Clock(), func(sc *clock.Scope) { w.runAppMaster(sc, req) })
	return nil, nil
}

// runAppMaster is one AppMaster attempt (Figure 3.a step 2-3): run the
// containers, stream results to the client, then report completion to
// the RM. The heartbeat goroutine keeps the RM convinced we are alive
// — when it can reach the RM.
func (w *Worker) runAppMaster(sc *clock.Scope, req startAMReq) {
	defer w.wg.Done()
	clk := w.ep.Clock()
	stopBeat := make(chan struct{})
	var beatWG sync.WaitGroup
	beatWG.Add(1)
	t := clk.NewTicker(w.cfg.AMHeartbeat)
	// A plain goroutine, not clock.Go: a service loop parked in
	// TickLoop must hold no busy token of its own (tick consumption is
	// accounted by TickLoop itself), or the virtual clock could never
	// advance.
	go func() {
		defer beatWG.Done()
		defer t.Stop()
		clock.TickLoop(clk, t, stopBeat, func(*clock.Scope) {
			_ = w.ep.Notify(w.cfg.RM, mAMBeat, amBeatMsg{JobID: req.JobID, Attempt: req.Attempt})
		})
	}()

	// Run every task in a container, spreading over the workers.
	for task := 0; task < req.Tasks; task++ {
		target := w.cfg.Workers[task%len(w.cfg.Workers)]
		//neat:allow ambiguity -- failure falls back to the co-hosted runtime; a doubly executed task is the reproduced flaw
		out, err := w.ep.CallIn(sc, target, mContainer, containerReq{
			JobID: req.JobID, Attempt: req.Attempt, Task: task,
		}, w.cfg.TaskDuration+w.cfg.RPCTimeout)
		if err != nil {
			// Container host unreachable: retry on ourselves. The AM
			// always co-hosts a container runtime.
			//neat:allow ambiguity -- retry on self after an unreachable host: the maybe-executed first try is MAPREDUCE-4819's double run
			out, err = w.ep.CallIn(sc, w.id, mContainer, containerReq{
				JobID: req.JobID, Attempt: req.Attempt, Task: task,
			}, w.cfg.TaskDuration+w.cfg.RPCTimeout)
			if err != nil {
				continue
			}
		}
		output, _ := out.(string)
		// Stream the task result to the user (Figure 3.b: results keep
		// flowing even when the RM is unreachable).
		_ = w.ep.Notify(req.Client, mResult, Result{
			JobID: req.JobID, Attempt: req.Attempt, Task: task, Output: output,
		})
	}

	if w.cfg.FencedCompletion {
		// The fix: commit completion at the RM first. The RM fences —
		// only the current attempt, only once — so a superseded or
		// duplicate attempt is refused and must stay silent. Only an
		// accepted completion is reported to the user.
		//neat:allow ambiguity -- fenced completion treats an ambiguous commit as refused, so the worker stays silent (conservative)
		if _, err := w.ep.CallIn(sc, w.cfg.RM, mComplete, completeMsg{JobID: req.JobID, Attempt: req.Attempt}, w.cfg.RPCTimeout); err == nil {
			_ = w.ep.Notify(req.Client, mResult, Result{JobID: req.JobID, Attempt: req.Attempt, Final: true})
		}
	} else {
		// Report final status to the client FIRST, then to the RM. This
		// ordering is MAPREDUCE-4819's flaw: if the RM is unreachable,
		// the user has already been told the job finished — and the RM
		// will rerun it anyway.
		_ = w.ep.Notify(req.Client, mResult, Result{JobID: req.JobID, Attempt: req.Attempt, Final: true})
		//neat:allow ambiguity -- the flaw under study: completion reaches the user before (and regardless of) the RM ack
		_, _ = w.ep.CallIn(sc, w.cfg.RM, mComplete, completeMsg{JobID: req.JobID, Attempt: req.Attempt}, w.cfg.RPCTimeout)
	}
	close(stopBeat)
	sc.Idle(beatWG.Wait)
}

func (w *Worker) onRunContainer(from netsim.NodeID, body any) (any, error) {
	req, ok := body.(containerReq)
	if !ok {
		return nil, errors.New("bad container request")
	}
	// The container's work time comes from the clock, so a virtual
	// round pays CPU microseconds, not wall-clock milliseconds, per
	// task.
	w.ep.DispatchScope().Sleep(w.cfg.TaskDuration)
	return fmt.Sprintf("%s/t%d", req.JobID, req.Task), nil
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

// Client submits jobs and collects results.
type Client struct {
	ep  *transport.Endpoint
	cfg Config

	mu      sync.Mutex
	results []Result
}

// NewClient attaches a MapReduce client.
func NewClient(n *netsim.Network, id netsim.NodeID, cfg Config) *Client {
	c := &Client{ep: transport.NewEndpoint(n, id), cfg: cfg.withDefaults()}
	c.ep.Handle(mResult, c.onResult)
	return c
}

// ID returns the client's node ID.
func (c *Client) ID() netsim.NodeID { return c.ep.ID() }

// Close detaches the client.
func (c *Client) Close() { c.ep.Close() }

func (c *Client) onResult(from netsim.NodeID, body any) (any, error) {
	res, ok := body.(Result)
	if !ok {
		return nil, errors.New("bad result")
	}
	c.mu.Lock()
	c.results = append(c.results, res)
	c.mu.Unlock()
	return nil, nil
}

// Submit sends a job with the given task count to the ResourceManager
// (Figure 3.a step 1). A transport-level failure is marked
// maybe-executed: the RM can have accepted the job with only the reply
// lost, and the job will then run without the user ever being told.
func (c *Client) Submit(jobID string, tasks int) error {
	_, err := c.ep.Call(c.cfg.RM, mSubmit, submitReq{
		JobID: jobID, Tasks: tasks, Client: c.ep.ID(),
	}, 0)
	if err != nil && !transport.IsRemote(err) {
		return transport.MarkMaybeExecuted(err)
	}
	return err
}

// MaybeExecuted reports whether a failed operation may nevertheless
// have been applied — the ambiguity classification the history
// checkers consume.
func MaybeExecuted(err error) bool { return transport.MaybeExecuted(err) }

// Results returns the results received so far.
func (c *Client) Results() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Result(nil), c.results...)
}

// FinalNotifications counts how many times the job was reported
// finished — more than once means double execution.
func (c *Client) FinalNotifications(jobID string) int {
	n := 0
	for _, r := range c.Results() {
		if r.JobID == jobID && r.Final {
			n++
		}
	}
	return n
}

// TaskExecutions returns how many times each task's result was
// delivered; any count above 1 is duplicate output (data corruption).
func (c *Client) TaskExecutions(jobID string) map[int]int {
	out := make(map[int]int)
	for _, r := range c.Results() {
		if r.JobID == jobID && !r.Final {
			out[r.Task]++
		}
	}
	return out
}

// JobStatus queries the RM's view of a job.
func (c *Client) JobStatus(jobID string) (JobState, error) {
	resp, err := c.ep.Call(c.cfg.RM, mJobStatus, jobStatusReq{JobID: jobID}, 0)
	if err != nil {
		return JobState{}, err
	}
	st, _ := resp.(JobState)
	return st, nil
}
