package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"neat/internal/campaign"
	"neat/internal/clock"
	"neat/internal/core"
	"neat/internal/history"
	"neat/internal/netsim"
)

// wallNow reads the host clock. Every timing the benchmark takes goes
// through here, so the one wall-clock read is audited in one place.
func wallNow() time.Time {
	//neat:allow realclock,checkerpurity -- wall time of the benchmark's calls into each layer, checkers included (history.check_us_per_round)
	return time.Now()
}

// Span names, one per layer boundary the wrappers cross.
const (
	spanRound   = "round"
	spanDeploy  = "deploy"
	spanStep    = "step"
	spanProbe   = "probe"
	spanObserve = "observe"
	spanCheck   = "check"
	spanClose   = "close"
)

// span is one timed call. Start and end are offsets from the tracer's
// base; parent is the index of the causing span within its round's
// span list (-1 for the round span itself).
type span struct {
	name       string
	round      int64
	parent     int
	start, end time.Duration
}

// roundRec is one executed round as seen from outside: the span from
// the target's Deploy call until its Close returns. Untraced runs fill
// only the identity and the two timestamps; traced runs add the child
// spans and the per-layer counters read at Close.
type roundRec struct {
	id         int64
	target     string
	search     bool // started before the campaign's search phase ended
	start, end time.Duration
	deployErr  bool

	mu    sync.Mutex // guards the traced fields below
	spans []span
	// probes counts probe passes; stepOps the operations the workload
	// steps recorded; observeLen the history length Observe left
	// behind; checkedOps the length the checks judged and violations
	// what they returned.
	probes              int
	stepOps, observeLen int
	checks, checkedOps  int
	violations          int
	net                 netsim.Stats
	virtual             time.Duration
	fired               int
}

// tracer records rounds and spans in memory; they are summarized when
// the run ends.
type tracer struct {
	base   time.Time
	traced bool
	// refuse makes every Deploy fail after it is timed: a set-up
	// measurement needs the first round's start, not the round.
	refuse bool

	nextID   atomic.Int64
	inShrink atomic.Bool
	first    atomic.Int64 // refuse mode: wall-clock UnixNano of the first Deploy, 0 until then

	mu     sync.Mutex
	rounds []*roundRec
	// observed holds, per target, traced instances whose Observe has
	// returned and whose checks have not yet run: the checks a target
	// hands out are matched to their round through it.
	observed map[string][]*instance
}

func newTracer(traced bool) *tracer {
	return &tracer{base: wallNow(), traced: traced, observed: map[string][]*instance{}}
}

func (tr *tracer) since() time.Duration { return wallNow().Sub(tr.base) }

func (tr *tracer) finish(r *roundRec) {
	tr.mu.Lock()
	tr.rounds = append(tr.rounds, r)
	tr.mu.Unlock()
}

// snapshot returns the rounds recorded so far.
func (tr *tracer) snapshot() []*roundRec {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*roundRec(nil), tr.rounds...)
}

// wrap returns a target that forwards to t and records spans around
// every call. It presents exactly the optional interfaces t presents,
// so the runner's and the registry's type assertions see the same
// target.
func (tr *tracer) wrap(t campaign.Target) campaign.Target {
	w := &target{inner: t, tr: tr}
	if s, ok := t.(campaign.SafeTarget); ok {
		return safeTarget{w, s}
	}
	return w
}

type target struct {
	inner campaign.Target
	tr    *tracer
}

type safeTarget struct {
	*target
	s campaign.SafeTarget
}

func (t safeTarget) Safe() bool { return t.s.Safe() }

func (t *target) Name() string                { return t.inner.Name() }
func (t *target) Topology() campaign.Topology { return t.inner.Topology() }

func (t *target) Deploy(eng *core.Engine, rec *history.Recorder) (campaign.Instance, error) {
	tr := t.tr
	if tr.refuse {
		tr.first.CompareAndSwap(0, wallNow().UnixNano())
		return nil, errRefused
	}
	r := &roundRec{
		id:     tr.nextID.Add(1),
		target: t.inner.Name(),
		search: !tr.inShrink.Load(),
		start:  tr.since(),
	}
	var sim *clock.Sim
	if tr.traced {
		// The journal must be on before the instance arms its first
		// timer; it feeds clock.fired_per_round.
		if s, ok := eng.Clock().(*clock.Sim); ok {
			sim = s
			sim.Journal = true
		}
		r.spans = append(r.spans, span{name: spanRound, round: r.id, parent: -1, start: r.start})
	}
	inst, err := t.inner.Deploy(eng, rec)
	if tr.traced {
		r.addSpan(spanDeploy, r.start, tr.since())
	}
	if err != nil {
		r.deployErr = true
		r.end = tr.since()
		tr.finish(r)
		return nil, err
	}
	w := &instance{inner: inst, tr: tr, r: r, rec: rec, eng: eng, sim: sim}
	p, isProber := inst.(campaign.Prober)
	d, isDisk := inst.(campaign.DiskFaulter)
	switch {
	case isProber && isDisk:
		return proberDiskInstance{w, p, d}, nil
	case isProber:
		return proberInstance{w, p}, nil
	case isDisk:
		return diskInstance{w, d}, nil
	}
	return w, nil
}

// Checks hands out the target's checkers. Traced, each is wrapped to
// time the call and count what it judged; the round is found by the
// history length its Observe left behind.
func (t *target) Checks() []history.Check {
	checks := t.inner.Checks()
	if !t.tr.traced {
		return checks
	}
	var once sync.Once
	var owner *instance
	bind := func(h history.History) *instance {
		once.Do(func() { owner = t.tr.claimObserved(t.inner.Name(), len(h)) })
		return owner
	}
	out := make([]history.Check, len(checks))
	for i, check := range checks {
		out[i] = func(h history.History) []history.Violation {
			inst := bind(h)
			start := t.tr.since()
			vs := check(h)
			if inst != nil {
				inst.r.recordCheck(start, t.tr.since(), len(h), len(vs))
			}
			return vs
		}
	}
	return out
}

// claimObserved removes and returns the observed instance of target
// whose history length matches n, or nil when none does.
func (tr *tracer) claimObserved(target string, n int) *instance {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	list := tr.observed[target]
	for i, inst := range list {
		if inst.r.observeLen == n {
			tr.observed[target] = append(list[:i:i], list[i+1:]...)
			return inst
		}
	}
	return nil
}

func (tr *tracer) dropObserved(inst *instance) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	list := tr.observed[inst.r.target]
	for i, x := range list {
		if x == inst {
			tr.observed[inst.r.target] = append(list[:i:i], list[i+1:]...)
			return
		}
	}
}

func (r *roundRec) addSpan(name string, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, round: r.id, parent: 0, start: start, end: end})
	r.mu.Unlock()
}

func (r *roundRec) recordCheck(start, end time.Duration, ops, violations int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: spanCheck, round: r.id, parent: 0, start: start, end: end})
	r.checks++
	r.checkedOps = ops
	r.violations += violations
	r.mu.Unlock()
}

// instance forwards one deployed round's calls and records their spans.
type instance struct {
	inner campaign.Instance
	tr    *tracer
	r     *roundRec
	rec   *history.Recorder
	eng   *core.Engine
	sim   *clock.Sim
}

func (w *instance) Step(ctx *campaign.StepCtx) {
	if !w.tr.traced {
		w.inner.Step(ctx)
		return
	}
	before := w.rec.Len()
	start := w.tr.since()
	w.inner.Step(ctx)
	end := w.tr.since()
	if ctx.Probe {
		// The runner's generic probe fallback re-runs Step.
		w.r.addSpan(spanProbe, start, end)
		w.r.mu.Lock()
		w.r.probes++
		w.r.mu.Unlock()
		return
	}
	w.r.addSpan(spanStep, start, end)
	w.r.mu.Lock()
	w.r.stepOps += w.rec.Len() - before
	w.r.mu.Unlock()
}

func (w *instance) Observe(ctx *campaign.StepCtx) {
	if !w.tr.traced {
		w.inner.Observe(ctx)
		return
	}
	start := w.tr.since()
	w.inner.Observe(ctx)
	w.r.addSpan(spanObserve, start, w.tr.since())
	w.r.mu.Lock()
	w.r.observeLen = w.rec.Len()
	w.r.mu.Unlock()
	w.tr.mu.Lock()
	w.tr.observed[w.r.target] = append(w.tr.observed[w.r.target], w)
	w.tr.mu.Unlock()
}

func (w *instance) Close() {
	if w.tr.traced {
		// Read the layers' counters before teardown changes them, just
		// after the runner takes its own netsim snapshot.
		net := w.eng.Network().Stats()
		var virtual time.Duration
		var fired int
		if w.sim != nil {
			virtual = w.sim.Elapsed()
			fired = len(w.sim.JournalLines())
		}
		w.tr.dropObserved(w)
		start := w.tr.since()
		w.inner.Close()
		end := w.tr.since()
		w.r.addSpan(spanClose, start, end)
		w.r.mu.Lock()
		w.r.net, w.r.virtual, w.r.fired = net, virtual, fired
		w.r.spans[0].end = end
		w.r.mu.Unlock()
		w.r.end = end
	} else {
		w.inner.Close()
		w.r.end = w.tr.since()
	}
	w.tr.finish(w.r)
}

func (w *instance) probe(p campaign.Prober, ctx *campaign.StepCtx) bool {
	if !w.tr.traced {
		return p.Probe(ctx)
	}
	start := w.tr.since()
	ok := p.Probe(ctx)
	w.r.addSpan(spanProbe, start, w.tr.since())
	w.r.mu.Lock()
	w.r.probes++
	w.r.mu.Unlock()
	return ok
}

type proberInstance struct {
	*instance
	p campaign.Prober
}

func (w proberInstance) Probe(ctx *campaign.StepCtx) bool { return w.probe(w.p, ctx) }

type diskInstance struct {
	*instance
	d campaign.DiskFaulter
}

func (w diskInstance) SetDiskFault(node netsim.NodeID, mode string) { w.d.SetDiskFault(node, mode) }

type proberDiskInstance struct {
	*instance
	p campaign.Prober
	d campaign.DiskFaulter
}

func (w proberDiskInstance) Probe(ctx *campaign.StepCtx) bool { return w.probe(w.p, ctx) }
func (w proberDiskInstance) SetDiskFault(node netsim.NodeID, mode string) {
	w.d.SetDiskFault(node, mode)
}

// writeSpans writes every span of rounds to path, one JSON object a
// line, in round order.
func writeSpans(path string, rounds []*roundRec) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Round   int64  `json:"round"`
		Target  string `json:"target"`
		Search  bool   `json:"search"`
		Name    string `json:"name"`
		Parent  int    `json:"parent"`
		StartUs int64  `json:"start_us"`
		EndUs   int64  `json:"end_us"`
	}
	for _, r := range rounds {
		for _, s := range r.spans {
			l := line{s.round, r.target, r.search, s.name, s.parent, s.start.Microseconds(), s.end.Microseconds()}
			if err := enc.Encode(l); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
