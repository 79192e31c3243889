package campaign

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"neat/internal/core"
	"neat/internal/history"
	"neat/internal/netsim"
)

// wedgeTarget deploys an instance whose first Step blocks forever on a
// real channel — a wedged round the virtual clock cannot advance past.
type wedgeTarget struct{}

func (t *wedgeTarget) Name() string            { return "wedge" }
func (t *wedgeTarget) Topology() Topology      { return Topology{Servers: ids("s", 1)} }
func (t *wedgeTarget) Checks() []history.Check { return nil }
func (t *wedgeTarget) Deploy(eng *core.Engine, rec *history.Recorder) (Instance, error) {
	return &wedgeInstance{}, nil
}

type wedgeInstance struct{}

func (in *wedgeInstance) Step(*StepCtx)    { select {} }
func (in *wedgeInstance) Observe(*StepCtx) {}
func (in *wedgeInstance) Close()           {}

// TestWatchdogAbandonsWedgedRound: a round that stops making progress
// must come back as an engine-error/watchdog finding within the
// wall-clock bound instead of hanging the campaign.
func TestWatchdogAbandonsWedgedRound(t *testing.T) {
	sched := Schedule{Seed: 1, Ops: 3}
	//neat:allow realclock -- measures the wall-clock watchdog actually firing
	start := time.Now()
	out := runSchedule(&wedgeTarget{}, sched, runOpts{virtual: true, watchdog: 300 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
	if out.Err == nil {
		t.Fatal("wedged round reported no error")
	}
	if len(out.Violations) != 1 || out.Violations[0].Invariant != "engine-error" ||
		out.Violations[0].Subject != "watchdog" {
		t.Fatalf("violations = %+v, want one engine-error/watchdog", out.Violations)
	}
	if !strings.Contains(out.Violations[0].Detail, "goroutine") {
		t.Fatalf("watchdog detail carries no goroutine dump: %q", out.Violations[0].Detail)
	}
	// The stall names who holds the clock: the round driver, blocked
	// in Step with its root-scope token unparked.
	if !strings.Contains(out.Err.Error(), "holders=[root=1]") {
		t.Fatalf("watchdog error does not name the clock holder: %v", out.Err)
	}
}

// panicTarget deploys an instance whose first Step panics.
type panicTarget struct{}

func (t *panicTarget) Name() string            { return "panicky" }
func (t *panicTarget) Topology() Topology      { return Topology{Servers: ids("s", 1)} }
func (t *panicTarget) Checks() []history.Check { return nil }
func (t *panicTarget) Deploy(eng *core.Engine, rec *history.Recorder) (Instance, error) {
	return &panicInstance{}, nil
}

type panicInstance struct{}

func (in *panicInstance) Step(*StepCtx)    { panic("instance bug") }
func (in *panicInstance) Observe(*StepCtx) {}
func (in *panicInstance) Close()           {}

// TestPanicBecomesEngineError: a panicking round must be isolated as
// an engine-error/panic finding, not kill the process.
func TestPanicBecomesEngineError(t *testing.T) {
	out := runSchedule(&panicTarget{}, Schedule{Seed: 1, Ops: 3}, runOpts{virtual: true})
	if out.Err == nil {
		t.Fatal("panicked round reported no error")
	}
	if len(out.Violations) != 1 || out.Violations[0].Invariant != "engine-error" ||
		out.Violations[0].Subject != "panic" {
		t.Fatalf("violations = %+v, want one engine-error/panic", out.Violations)
	}
	if !strings.Contains(out.Violations[0].Detail, "instance bug") {
		t.Fatalf("panic detail lost the panic value: %q", out.Violations[0].Detail)
	}
}

// TestPanicInCampaignKeepsGoing: Run must absorb a panicking target's
// rounds as errors and still finish the campaign.
func TestPanicInCampaignKeepsGoing(t *testing.T) {
	res := Run(Config{
		Targets:     []Target{&panicTarget{}},
		Rounds:      3,
		Seed:        7,
		VirtualTime: true,
		Workers:     2,
	})
	if res.Errors != 3 {
		t.Fatalf("errors = %d, want every round counted", res.Errors)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no engine-error finding surfaced")
	}
}

// TestProbePhaseRecords: the recovery-validation phase drives a real
// Prober after a crash-and-heal schedule, records probe-phase
// operations, and reports confirmed recovery with per-group first-ok
// offsets.
func TestProbePhaseRecords(t *testing.T) {
	tgts, err := Select("raftkv")
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{
		Seed: 11,
		Ops:  6,
		Faults: []Fault{
			{Kind: FaultCrash, At: 2, HealAt: 4, GroupA: []netsim.NodeID{"r2"}},
		},
	}
	out := runSchedule(tgts[0], sched, runOpts{virtual: true, trace: true})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Recovery == nil {
		t.Fatal("no recovery stats recorded")
	}
	if !out.Recovery.Recovered {
		t.Fatalf("raftkv did not confirm recovery: %+v", out.Recovery)
	}
	if out.Recovery.RecoveryTime < 0 {
		t.Fatalf("recovered without a recovery time: %+v", out.Recovery)
	}
	if out.Recovery.Passes < 1 || out.Recovery.Ops < 1 {
		t.Fatalf("no probe work recorded: %+v", out.Recovery)
	}
	if len(out.Recovery.FirstOk) == 0 {
		t.Fatalf("no per-group first-ok offsets: %+v", out.Recovery)
	}
	probeOps := 0
	for _, op := range out.History {
		switch op.Phase {
		case history.PhaseProbe:
			probeOps++
			if !strings.HasPrefix(op.Kind, "probe-") {
				t.Fatalf("probe-phase op with main-workload kind %q", op.Kind)
			}
		case history.PhaseMain:
			if strings.HasPrefix(op.Kind, "probe-") {
				t.Fatalf("main-phase op with probe kind %q", op.Kind)
			}
		default:
			t.Fatalf("unknown phase %q", op.Phase)
		}
	}
	if probeOps != out.Recovery.Ops {
		t.Fatalf("history has %d probe ops, stats say %d", probeOps, out.Recovery.Ops)
	}
}

// TestNoProbeSkipsPhase: with probing disabled the round records no
// probe-phase operations and no recovery stats.
func TestNoProbeSkipsPhase(t *testing.T) {
	tgts, err := Select("raftkv")
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Seed: 11, Ops: 4}
	out := runSchedule(tgts[0], sched, runOpts{virtual: true, trace: true, noProbe: true})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Recovery != nil {
		t.Fatalf("recovery stats recorded with probing off: %+v", out.Recovery)
	}
	for _, op := range out.History {
		if op.Phase == history.PhaseProbe {
			t.Fatalf("probe-phase op recorded with probing off: %+v", op)
		}
	}
}

// TestProbePhaseDeterministic: two runs of the same schedule record
// identical probe-phase histories and identical recovery stats —
// probe passes, backoff retries included, replay under the virtual
// clock.
func TestProbePhaseDeterministic(t *testing.T) {
	tgts, err := Select("raftkv")
	if err != nil {
		t.Fatal(err)
	}
	sched := Generate(rand.New(rand.NewSource(23)), tgts[0].Topology())
	a := runSchedule(tgts[0], sched, runOpts{virtual: true, trace: true})
	b := runSchedule(tgts[0], sched, runOpts{virtual: true, trace: true})
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if (a.Recovery == nil) != (b.Recovery == nil) {
		t.Fatalf("recovery presence differs: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if a.Recovery.Passes != b.Recovery.Passes || a.Recovery.Ops != b.Recovery.Ops ||
		a.Recovery.Retries != b.Recovery.Retries ||
		a.Recovery.Recovered != b.Recovery.Recovered ||
		a.Recovery.RecoveryTime != b.Recovery.RecoveryTime {
		t.Fatalf("recovery stats differ:\n%+v\n%+v", a.Recovery, b.Recovery)
	}
	pa, pb := probeHistory(a.History), probeHistory(b.History)
	if len(pa) != len(pb) {
		t.Fatalf("probe histories differ in length: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("probe op %d differs:\n%+v\n%+v", i, pa[i], pb[i])
		}
	}
}

func probeHistory(h history.History) []history.Op {
	var out []history.Op
	for _, op := range h {
		if op.Phase == history.PhaseProbe {
			out = append(out, op)
		}
	}
	return out
}
