package campaign

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neat/internal/clock"
	"neat/internal/core"
	"neat/internal/coverage"
	"neat/internal/history"
	"neat/internal/netsim"
)

// RoundOutcome is the result of executing one schedule against one
// target.
type RoundOutcome struct {
	Target     string
	Round      int
	Schedule   Schedule
	Violations []Violation
	// History is the round's full recorded operation history,
	// retained only when the round ran with tracing on.
	History history.History
	// Recovery summarizes the post-heal recovery-validation phase; nil
	// when probing was disabled.
	Recovery *RecoveryStats
	// Net is the fabric's final packet-outcome counters, snapshotted at
	// a deterministic virtual instant (after the checks, with the
	// round's busy token still held).
	Net netsim.Stats
	// Coverage is the round's deterministic coverage signature (see
	// roundCoverage); zero when the round failed before judging.
	Coverage coverage.Signature
	Err      error
}

// RecoveryStats summarizes one round's recovery-validation phase.
type RecoveryStats struct {
	// Recovered reports whether the prober confirmed full recovery
	// inside the RTO window.
	Recovered bool
	// RecoveryTime is the offset from probe start at which the prober
	// first confirmed full recovery; -1 when it never did (or the
	// target has no Prober).
	RecoveryTime time.Duration
	// Passes counts probe passes driven; Ops counts the operations
	// they recorded; Retries counts resilience-layer retry attempts
	// they spent.
	Passes, Ops, Retries int
	// FirstOk maps each probed group (key, or key@node) to the offset
	// from probe start of its first successful probe operation; groups
	// that never succeeded are absent.
	FirstOk map[string]time.Duration
}

// DefaultSettle is the runner's post-heal quiescence wait: how long
// the round's clock runs after the last fault heals before the
// observation phase reads the settled state. One clock-driven wait,
// uniform across targets, replaces the per-target settle sleeps the
// embedded checkers used to carry; Config.Settle tunes it.
const DefaultSettle = 250 * time.Millisecond

// DefaultRTO is the default recovery-time objective: how long, on the
// round's clock, the post-heal probe phase gives the system to come
// back before the Recovery checker's violation classes apply. Virtual
// time makes the window essentially free when the target recovers on
// the first probe pass.
const DefaultRTO = time.Second

// DefaultRoundTimeout is the per-round wall-clock watchdog: a round
// that has not completed within it is abandoned as an engine-error
// finding (its goroutine is leaked) and the campaign keeps going. It
// is far above any healthy round — virtual rounds complete in
// milliseconds, real-clock rounds in seconds.
const DefaultRoundTimeout = 2 * time.Minute

// runOpts bundles the execution knobs a single round runs under.
type runOpts struct {
	virtual bool
	settle  time.Duration
	trace   bool
	// noProbe disables the post-heal recovery-validation phase. Probe
	// on is the zero value: replays and shrinks must preserve the
	// probe phase or recovery violations could never re-reproduce.
	noProbe bool
	// rto bounds the probe phase on the round's clock; 0 means
	// DefaultRTO.
	rto time.Duration
	// watchdog is the per-round wall-clock bound; 0 means
	// DefaultRoundTimeout, negative disables the watchdog.
	watchdog time.Duration
}

func (o runOpts) withDefaults() runOpts {
	if o.settle <= 0 {
		o.settle = DefaultSettle
	}
	if o.rto <= 0 {
		o.rto = DefaultRTO
	}
	if o.watchdog == 0 {
		o.watchdog = DefaultRoundTimeout
	}
	return o
}

// RunSchedule deploys a fresh instance of the target on its own
// engine, executes the schedule's workload rounds with faults injected
// and healed at their scheduled indices, then heals everything,
// restarts crashed nodes, waits out the quiescence settle, runs the
// observation phase, and judges the recorded history with the
// target's checkers. It runs on the real wall clock; campaigns
// normally use RunScheduleVirtual.
func RunSchedule(t Target, sched Schedule) RoundOutcome {
	return runSchedule(t, sched, runOpts{})
}

// RunScheduleVirtual runs the schedule against a fresh simulated clock
// owned by this round alone: timing waits (election timeouts,
// heartbeat periods, workload pacing) complete at CPU speed, and the
// round's timer sequence depends only on the schedule — not on how
// loaded the host is — so identical seeds yield identical outcomes.
// Each round getting its own clock keeps rounds independent and lets
// them run concurrently.
func RunScheduleVirtual(t Target, sched Schedule) RoundOutcome {
	return runSchedule(t, sched, runOpts{virtual: true})
}

// runSchedule hardens one round's execution: the round body runs on
// its own goroutine under a wall-clock watchdog, and a panicking or
// wedged round becomes an "engine-error" finding instead of killing
// or hanging the campaign. A wedged round's goroutine (and engine) is
// leaked deliberately — joining it is what the watchdog exists to
// avoid.
func runSchedule(t Target, sched Schedule, opts runOpts) RoundOutcome {
	opts = opts.withDefaults()
	// A virtual round's clock is created here so a wedge report can
	// name who holds it.
	var sim *clock.Sim
	if opts.virtual {
		sim = clock.NewSim()
	}
	done := make(chan RoundOutcome, 1)
	//neat:allow goaccount -- driver-side round isolation: this goroutine hosts the round's engine, it does not run inside one
	go func() {
		defer func() {
			if r := recover(); r != nil {
				// The body's own defers (engine shutdown, clock stop)
				// already ran during unwinding; report the round as an
				// engine error carrying the stack.
				o := RoundOutcome{Target: t.Name(), Schedule: sched}
				o.Err = fmt.Errorf("campaign: round panicked: %v", r)
				o.Violations = []Violation{{
					Target:    t.Name(),
					Invariant: "engine-error",
					Subject:   "panic",
					Detail:    fmt.Sprintf("round panicked: %v\n%s", r, debug.Stack()),
				}}
				done <- o
			}
		}()
		done <- runScheduleBody(t, sched, opts, sim)
	}()
	var timeoutC <-chan time.Time
	if opts.watchdog > 0 {
		//neat:allow realclock -- the watchdog must run on the wall clock: a wedged round's virtual clock never advances
		tm := time.NewTimer(opts.watchdog)
		defer tm.Stop()
		timeoutC = tm.C
	}
	select {
	case o := <-done:
		return o
	case <-timeoutC:
		var dump strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&dump, 2) // a Builder never fails
		out := RoundOutcome{Target: t.Name(), Schedule: sched}
		stall := "real clock"
		if sim != nil {
			stall = sim.Stall()
		}
		out.Err = fmt.Errorf("campaign: round wedged: exceeded the %v wall-clock watchdog (clock: %s)", opts.watchdog, stall)
		out.Violations = []Violation{{
			Target:    t.Name(),
			Invariant: "engine-error",
			Subject:   "watchdog",
			Detail: fmt.Sprintf("round made no progress within the %v wall-clock watchdog; clock: %s; goroutine dump:\n%s",
				opts.watchdog, stall, dump.String()),
		}}
		return out
	}
}

// runScheduleBody runs one round, on sim when it is non-nil and on the
// real clock otherwise.
func runScheduleBody(t Target, sched Schedule, opts runOpts, sim *clock.Sim) RoundOutcome {
	out := RoundOutcome{Target: t.Name(), Schedule: sched}
	var engOpts core.Options
	if sim != nil {
		defer sim.Stop()
		engOpts.Net.Clock = sim
	}
	eng := core.NewEngine(engOpts)
	defer eng.Shutdown()
	topo := t.Topology()
	for _, id := range topo.Servers {
		eng.AddNode(id, core.RoleServer)
	}
	for _, id := range topo.Services {
		eng.AddNode(id, core.RoleService)
	}
	for _, id := range topo.Clients {
		eng.AddNode(id, core.RoleClient)
	}
	rec := history.NewRecorder(eng.Clock())
	inst, err := t.Deploy(eng, rec)
	if err != nil {
		out.Err = fmt.Errorf("campaign: deploying %s: %w", t.Name(), err)
		return out
	}
	defer inst.Close()
	// The round's driving goroutine holds a scoped busy token for the
	// workload and check phases: virtual time cannot overtake it while
	// it computes between operations, yet the token is surrendered
	// whenever it blocks in a clock wait (a workload sleep, an RPC
	// timeout). Released before the deferred teardown so that Stop-time
	// joins can still let time advance.
	clock.AcquireScoped(eng.Clock())
	defer clock.ReleaseScoped(eng.Clock())

	// The workload rng is derived from the schedule seed so a replay
	// of the schedule replays the workload too.
	rng := rand.New(rand.NewSource(sched.Seed ^ 0x6e6561742d66757a)) // "neat-fuz"
	active := make([]*core.Partition, len(sched.Faults))
	crashed := make([]bool, len(sched.Faults))
	paused := make([]bool, len(sched.Faults))
	skewed := make([]bool, len(sched.Faults))
	diskOn := make([]bool, len(sched.Faults))
	// Restart-fault recovery bookkeeping. The recovery callback runs on
	// the clock's advancer (only while this goroutine is parked in a
	// clock wait), but downMu keeps the shared state honest anyway.
	restartTimers := make([]clock.Timer, len(sched.Faults))
	restartDone := make([]bool, len(sched.Faults))
	var downMu sync.Mutex
	// downRef refcounts crashed nodes: two crash faults may share a
	// victim, and healing one must not restart a node another fault
	// still holds down. activeCount is guarded by downMu too, because a
	// restart fault ends on the clock's advancer goroutine when its
	// timer fires — the count must drop there, or every later
	// operation would be stamped with a fault that is already over.
	downRef := make(map[netsim.NodeID]int)
	activeCount := 0
	addActive := func(d int) {
		downMu.Lock()
		activeCount += d
		downMu.Unlock()
	}
	curActive := func() int {
		downMu.Lock()
		defer downMu.Unlock()
		return activeCount
	}
	heal := func(i int) {
		f := sched.Faults[i]
		switch f.Kind {
		case FaultCrash:
			if crashed[i] {
				v := f.GroupA[0]
				downMu.Lock()
				activeCount--
				if downRef[v]--; downRef[v] == 0 {
					eng.Restart(v)
				}
				downMu.Unlock()
				crashed[i] = false
			}
			return
		case FaultPause:
			if paused[i] {
				eng.Resume(f.GroupA[0])
				paused[i] = false
				addActive(-1)
			}
			return
		case FaultSkew:
			if skewed[i] {
				eng.ClearSkew(f.GroupA[0])
				skewed[i] = false
				addActive(-1)
			}
			return
		case FaultDisk:
			if diskOn[i] {
				inst.(DiskFaulter).SetDiskFault(f.GroupA[0], "")
				diskOn[i] = false
				addActive(-1)
			}
			return
		case FaultRestart:
			// Force the recovery now if its timer has not fired yet.
			v := f.GroupA[0]
			downMu.Lock()
			if !restartDone[i] {
				restartDone[i] = true
				if tm := restartTimers[i]; tm != nil {
					tm.Stop()
				}
				activeCount--
				if downRef[v]--; downRef[v] == 0 {
					eng.Restart(v)
				}
			}
			downMu.Unlock()
			return
		}
		if active[i] != nil {
			_ = eng.Heal(active[i])
			active[i] = nil
			addActive(-1)
		}
	}
	for op := 0; op < sched.Ops; op++ {
		for i, f := range sched.Faults {
			if f.HealAt == op {
				heal(i)
			}
		}
		for i, f := range sched.Faults {
			if f.At != op {
				continue
			}
			var err error
			switch f.Kind {
			case FaultComplete:
				active[i], err = eng.Complete(f.GroupA, f.GroupB)
			case FaultPartial:
				active[i], err = eng.Partial(f.GroupA, f.GroupB)
			case FaultSimplex:
				active[i], err = eng.Simplex(f.GroupA, f.GroupB)
			case FaultSlow:
				d := time.Duration(f.DelayMs) * time.Millisecond
				active[i], err = eng.Slow(f.GroupA, f.GroupB, d, d/4)
			case FaultLoss:
				active[i], err = eng.Lossy(f.GroupA, f.GroupB, f.Rate)
			case FaultFlaky:
				active[i], err = eng.Flaky(f.GroupA, f.GroupB, netsim.Chaos{
					Dup:           f.Rate,
					Reorder:       f.Rate,
					ReorderWindow: time.Duration(f.DelayMs) * time.Millisecond,
				})
			case FaultFlap:
				active[i], err = eng.Flap(f.GroupA, f.GroupB, time.Duration(f.DelayMs)*time.Millisecond)
			case FaultCrash:
				v := f.GroupA[0]
				downMu.Lock()
				if downRef[v] == 0 {
					eng.Crash(v)
				}
				downRef[v]++
				downMu.Unlock()
				crashed[i] = true
			case FaultSkew:
				eng.Skew(f.GroupA[0], time.Duration(f.DelayMs)*time.Millisecond, f.Rate)
				skewed[i] = true
			case FaultPause:
				eng.Pause(f.GroupA[0])
				paused[i] = true
			case FaultDisk:
				df, ok := inst.(DiskFaulter)
				if !ok {
					err = fmt.Errorf("target declares DiskNodes but its instance lacks SetDiskFault")
					break
				}
				df.SetDiskFault(f.GroupA[0], f.Mode)
				diskOn[i] = true
			case FaultRestart:
				v := f.GroupA[0]
				downMu.Lock()
				if downRef[v] == 0 {
					eng.Crash(v)
				}
				downRef[v]++
				downMu.Unlock()
				idx := i
				// The scheduled recovery ends the fault on the round's
				// clock: the active count drops, and the victim restarts
				// only if no other fault still holds it down — a crash
				// fault sharing the victim must keep it dark.
				restartTimers[i] = eng.Clock().AfterFunc(time.Duration(f.DelayMs)*time.Millisecond, func() {
					downMu.Lock()
					if !restartDone[idx] {
						restartDone[idx] = true
						activeCount--
						if downRef[v]--; downRef[v] == 0 {
							eng.Restart(v)
						}
					}
					downMu.Unlock()
				})
			default:
				err = fmt.Errorf("unknown fault kind %v", f.Kind)
			}
			if err != nil {
				// A round whose faults never took effect must not be
				// reported as a clean run of this schedule.
				out.Err = fmt.Errorf("campaign: injecting %q: %w", f.String(), err)
				return out
			}
			addActive(1)
		}
		n := curActive()
		rec.SetFaults(n)
		inst.Step(&StepCtx{Rng: rng, Clock: eng.Clock(), Op: op, ActiveFaults: n, Paused: eng.IsPaused})
	}
	// End-of-schedule heal: resume frozen nodes, clear skews, disarm
	// lying disks, and cancel pending recovery timers (their victims
	// are revived with the crashed nodes below), so the observation
	// phase reads a fault-free fabric. Corruption already written by a
	// disk fault stays — that is the failure under test.
	for i, f := range sched.Faults {
		switch f.Kind {
		case FaultPause:
			if paused[i] {
				eng.Resume(f.GroupA[0])
				paused[i] = false
			}
		case FaultSkew:
			if skewed[i] {
				eng.ClearSkew(f.GroupA[0])
				skewed[i] = false
			}
		case FaultDisk:
			if diskOn[i] {
				inst.(DiskFaulter).SetDiskFault(f.GroupA[0], "")
				diskOn[i] = false
			}
		case FaultRestart:
			downMu.Lock()
			if !restartDone[i] {
				restartDone[i] = true
				if tm := restartTimers[i]; tm != nil {
					tm.Stop()
				}
				activeCount--
				// downRef stays counted; the forced-restart loop below
				// revives every node still held down.
			}
			downMu.Unlock()
		}
	}
	_ = eng.HealAll()
	// Force every still-down victim back up, in sorted order for
	// determinism — crash faults that never healed and restart faults
	// whose timer never fired — so the recovery-validation phase
	// measures real post-heal recovery rather than a permanently dark
	// node.
	downMu.Lock()
	victims := make([]netsim.NodeID, 0, len(downRef))
	for v, n := range downRef {
		if n > 0 {
			victims = append(victims, v)
		}
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a] < victims[b] })
	for _, v := range victims {
		eng.Restart(v)
		downRef[v] = 0
	}
	downMu.Unlock()
	rec.SetFaults(0)
	// Quiescence: one clock-driven settle, uniform across targets, so
	// re-elections, session re-establishment, and post-heal
	// consolidation complete before the settled state is observed.
	eng.Clock().Sleep(opts.settle)
	if !opts.noProbe {
		out.Recovery = runProbe(inst, rec, eng, rng, sched, opts)
	}
	inst.Observe(&StepCtx{Rng: rng, Clock: eng.Clock(), Op: -1, Paused: eng.IsPaused})
	h := rec.History()
	for _, check := range t.Checks() {
		for _, v := range check(h) {
			out.Violations = append(out.Violations, Violation{
				Target:    t.Name(),
				Invariant: v.Invariant,
				Subject:   v.Subject,
				Detail:    v.Detail,
				Trace:     v.Witness,
			})
		}
	}
	if opts.trace {
		out.History = h
	}
	out.Net = eng.Network().Stats()
	out.Coverage = roundCoverage(&out, h)
	return out
}

// runProbe drives the recovery-validation phase: with every fault
// healed and every victim back up, probe passes run on the round's
// clock inside the RTO window — a Prober instance's deterministic
// probe workload, or a generic fallback that keeps re-running the
// workload slice with continuing op indices. Probe operations are
// recorded under history.PhaseProbe, which is all the Recovery
// checker judges; a Prober that confirms full recovery ends the phase
// early.
func runProbe(inst Instance, rec *history.Recorder, eng *core.Engine, rng *rand.Rand, sched Schedule, opts runOpts) *RecoveryStats {
	stats := &RecoveryStats{RecoveryTime: -1, FirstOk: map[string]time.Duration{}}
	clk := eng.Clock()
	prober, hasProber := inst.(Prober)
	start := clk.Now()
	// Probe pacing: up to 8 passes across the RTO window, the first
	// immediately — a healthy target recovers on pass one and pays
	// almost nothing.
	interval := opts.rto / 8
	if interval <= 0 {
		interval = time.Millisecond
	}
	rec.SetPhase(history.PhaseProbe)
	for pass := 0; ; pass++ {
		ctx := &StepCtx{
			Rng: rng, Clock: clk, Op: sched.Ops + pass,
			Paused: eng.IsPaused, Probe: true, retries: &stats.Retries,
		}
		before := rec.Len()
		recovered := false
		if hasProber {
			recovered = prober.Probe(ctx)
		} else {
			inst.Step(ctx)
		}
		stats.Passes++
		stats.Ops += rec.Len() - before
		if recovered {
			stats.Recovered = true
			stats.RecoveryTime = clk.Now().Sub(start)
			break
		}
		if clk.Now().Sub(start)+interval >= opts.rto {
			break
		}
		clk.Sleep(interval)
	}
	rec.SetPhase(history.PhaseMain)
	// Per-group first-success offsets, for the report's recovery_ns.
	probes := rec.History().Filter(func(op history.Op) bool { return op.Phase == history.PhaseProbe })
	if len(probes) > 0 {
		base := probes[0].Invoke
		for _, op := range probes {
			if op.Outcome != history.Ok {
				continue
			}
			g := op.Key
			if op.Node != "" {
				g = op.Key + "@" + op.Node
			}
			if _, seen := stats.FirstOk[g]; !seen {
				stats.FirstOk[g] = op.Invoke - base
			}
		}
	}
	return stats
}

// scheduleSeed derives the deterministic schedule seed for one
// (campaign seed, target, round) triple.
func scheduleSeed(base int64, target string, round int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", base, target, round)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// TargetStats aggregates one target's campaign outcome.
type TargetStats struct {
	Rounds     int
	Violations int
	Unique     int
	Errors     int
	// ProbedRounds counts rounds whose recovery-validation phase ran;
	// RecoveredRounds how many of those confirmed full recovery within
	// the RTO window.
	ProbedRounds    int
	RecoveredRounds int
	// ProbeOps and ProbeRetries total the recorded probe operations
	// and the resilience-layer retry attempts they spent.
	ProbeOps     int
	ProbeRetries int
	// MaxRecoveryNs is the slowest confirmed full recovery (virtual
	// nanoseconds from probe start).
	MaxRecoveryNs int64
	// Signatures counts the distinct coverage signatures the target's
	// rounds produced during this run.
	Signatures int
	// MutatedRounds counts rounds whose schedule was derived by corpus
	// mutation rather than fresh generation.
	MutatedRounds int
	// CorpusNew counts rounds whose signature was novel for the corpus
	// (including one pre-seeded from a prior campaign), so their
	// schedules were added as mutation parents.
	CorpusNew int
	// RecoveryNs is the worst-case per-group recovery time (virtual
	// nanoseconds from probe start to the group's first successful
	// probe), across the target's rounds.
	RecoveryNs map[string]int64
}

// Config configures a campaign.
type Config struct {
	// Targets are the systems to fuzz.
	Targets []Target
	// Rounds is how many schedules to run per target.
	Rounds int
	// Seed derives every schedule seed; equal seeds regenerate equal
	// schedules.
	Seed int64
	// FaultKinds restricts which fault kinds Generate draws; nil or
	// empty means AllFaultKinds. cmd/neat-fuzz sets it from -faults.
	FaultKinds []FaultKind
	// VirtualTime runs every round (and every shrink re-execution) on
	// its own fresh simulated clock, so timing waits complete at CPU
	// speed instead of wall-clock speed and identical seeds yield
	// identical outcomes. cmd/neat-fuzz enables this by default.
	VirtualTime bool
	// Workers bounds concurrent rounds; 0 means a default based on
	// GOMAXPROCS. Real-clock rounds spend most of their time in timing
	// sleeps, so modest oversubscription helps wall-clock even on one
	// CPU. Virtual-time rounds are mostly CPU-bound; their default is
	// GOMAXPROCS*2 clamped to [8, 16] — the extra workers cover the
	// brief settle waits each round's clock takes between advances.
	// Outcomes are identical at any worker count.
	Workers int
	// Shrink greedily minimizes one failing schedule per unique
	// violation signature.
	Shrink bool
	// ShrinkAttempts is how many times a candidate schedule is run
	// while shrinking before concluding it no longer reproduces
	// (default 1).
	ShrinkAttempts int
	// Settle is the post-heal quiescence wait on the round's clock
	// before the observation phase; 0 means DefaultSettle. Uniform
	// across targets and virtually free under VirtualTime.
	Settle time.Duration
	// RTO is the recovery-time objective: how long, on the round's
	// clock, the post-heal probe phase gives the system to come back
	// before the Recovery checker's stuck/degraded/data-loss classes
	// apply; 0 means DefaultRTO. cmd/neat-fuzz sets it from -rto.
	RTO time.Duration
	// NoProbe disables the recovery-validation phase entirely; the
	// campaign then judges only in-window safety, as before the phase
	// existed. cmd/neat-fuzz sets it from -probe=false.
	NoProbe bool
	// RoundTimeout is the per-round wall-clock watchdog: a round
	// exceeding it is abandoned as an engine-error finding and the
	// campaign keeps going; 0 means DefaultRoundTimeout, negative
	// disables the watchdog.
	RoundTimeout time.Duration
	// Mutate turns on coverage-guided search: rounds run in small
	// generations, and once the corpus has parents for a target most of
	// its later schedules are derived by mutating corpus entries
	// instead of fresh random generation. Schedules stay a pure
	// function of (Seed, target, round, corpus-at-generation-start), so
	// mutate campaigns are byte-identical across worker counts too.
	// cmd/neat-fuzz sets it from -mutate.
	Mutate bool
	// Corpus, when set, seeds the coverage corpus (typically loaded
	// from a prior campaign's -corpus file) and receives this
	// campaign's novel schedules. Nil means start empty.
	Corpus *Corpus
	// Trace retains every finding's full recorded operation history
	// (the witness trace is always kept). cmd/neat-fuzz sets it from
	// -trace.
	Trace bool
	// Log, when set, receives one line per completed round.
	Log io.Writer
}

// Result is the campaign outcome.
type Result struct {
	Seed     int64
	Rounds   int
	Targets  []string
	Stats    map[string]*TargetStats
	Findings []Finding
	// Errors counts rounds that failed to deploy or execute.
	Errors int
	// Mutate records whether the campaign ran the coverage-guided
	// search; Corpus is the coverage corpus after the run (pre-seeded
	// entries plus every schedule that reached a novel signature).
	Mutate bool
	Corpus *Corpus
}

// TotalViolations sums every violation found, before deduplication.
func (r *Result) TotalViolations() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Violations
	}
	return n
}

// mutateGenerationSize is how many rounds per target run between
// corpus barriers in mutate mode. Corpus additions apply only at the
// barrier, in (target, round) order, so every schedule in a generation
// depends on the corpus as it stood at the generation's start — never
// on which worker finished a sibling round first.
const mutateGenerationSize = 5

// mutateFreshFraction is the share of mutate-mode rounds that still
// run a freshly generated schedule once the corpus has parents, so the
// search keeps exploring states no ancestor reached.
const mutateFreshFraction = 0.4

// runJob is one scheduled round: the schedule is fixed before the
// generation starts, so workers only execute.
type runJob struct {
	target  Target
	round   int
	sched   Schedule
	mutated bool
}

// Run executes a campaign: Rounds seeded schedules per target on a
// worker pool, violations deduplicated by signature, and (optionally)
// one greedy shrink per unique signature. With cfg.Mutate the rounds
// run in generations and most schedules are derived by mutating corpus
// entries once the corpus has any.
func Run(cfg Config) *Result {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10
	}
	if cfg.Workers <= 0 {
		// Virtual-time rounds are mostly CPU-bound with brief settle
		// waits between clock advances, so they take a higher floor and
		// ceiling; real-clock rounds sleep most of the time, so a small
		// pool suffices either way. Rounds stay deterministic regardless
		// of the worker count: each runs on its own engine, clock, and
		// seed-derived rng.
		lo, hi := 2, 8
		if cfg.VirtualTime {
			lo, hi = 8, 16
		}
		cfg.Workers = min(max(runtime.GOMAXPROCS(0)*2, lo), hi)
	}
	corpus := cfg.Corpus
	if corpus == nil {
		corpus = NewCorpus()
	}
	res := &Result{
		Seed:   cfg.Seed,
		Rounds: cfg.Rounds,
		Stats:  make(map[string]*TargetStats),
		Mutate: cfg.Mutate,
		Corpus: corpus,
	}
	for _, t := range cfg.Targets {
		res.Targets = append(res.Targets, t.Name())
		res.Stats[t.Name()] = &TargetStats{}
	}

	opts := runOpts{
		virtual: cfg.VirtualTime, settle: cfg.Settle, trace: cfg.Trace,
		noProbe: cfg.NoProbe, rto: cfg.RTO, watchdog: cfg.RoundTimeout,
	}
	// Generation size: the whole campaign at once without mutation
	// (schedules never depend on earlier outcomes), small batches with
	// it (each generation mutates what the previous ones learned).
	genSize := cfg.Rounds
	if cfg.Mutate {
		genSize = mutateGenerationSize
	}
	covSets := make(map[string]*coverage.Set, len(cfg.Targets))
	var found []Finding
	for g0 := 0; g0 < cfg.Rounds; g0 += genSize {
		gEnd := min(g0+genSize, cfg.Rounds)
		jobs := make([]runJob, 0, len(cfg.Targets)*(gEnd-g0))
		for _, t := range cfg.Targets {
			var pool []Schedule
			if cfg.Mutate {
				pool = corpus.ForTarget(t.Name())
			}
			for r := g0; r < gEnd; r++ {
				seed := scheduleSeed(cfg.Seed, t.Name(), r)
				gen := rand.New(rand.NewSource(seed))
				j := runJob{target: t, round: r}
				if cfg.Mutate && len(pool) > 0 && gen.Float64() >= mutateFreshFraction {
					j.sched = Mutate(gen, t.Topology(), cfg.FaultKinds, pool)
					j.mutated = true
				} else {
					j.sched = Generate(gen, t.Topology(), cfg.FaultKinds...)
				}
				j.sched.Seed = seed
				jobs = append(jobs, j)
			}
		}
		outs := runGeneration(cfg, jobs, opts)
		res.aggregate(corpus, covSets, jobs, outs, &found)
	}

	res.Findings = Dedup(found)
	for _, f := range res.Findings {
		if st, ok := res.Stats[f.Violation.Target]; ok {
			st.Unique++
		}
	}
	if cfg.Shrink {
		res.shrinkAll(cfg)
	}
	return res
}

// runGeneration executes one generation's jobs on the worker pool and
// returns the outcomes slotted by job index. Log lines stream in
// completion order (they are progress, not part of the result); the
// outcomes themselves are consumed in job order by aggregate.
func runGeneration(cfg Config, jobs []runJob, opts runOpts) []RoundOutcome {
	outs := make([]RoundOutcome, len(jobs))
	workers := min(cfg.Workers, len(jobs))
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var logMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//neat:allow goaccount -- campaign worker pool: drivers run rounds, each round owns its own virtual clock
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				out := runSchedule(j.target, j.sched, opts)
				out.Round = j.round
				outs[i] = out
				if cfg.Log != nil {
					logMu.Lock()
					fmt.Fprintf(cfg.Log, "round %3d  %-22s violations=%d%s%s\n",
						j.round, out.Target, len(out.Violations), recoverySuffix(out.Recovery), errSuffix(out.Err))
					logMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// aggregate folds one generation's outcomes into the result and the
// corpus, strictly in job order — (target, round) — so stats, corpus
// insertion order, and finding order are independent of worker
// scheduling.
func (r *Result) aggregate(corpus *Corpus, covSets map[string]*coverage.Set, jobs []runJob, outs []RoundOutcome, found *[]Finding) {
	for i, j := range jobs {
		out := outs[i]
		name := j.target.Name()
		st := r.Stats[name]
		st.Rounds++
		st.Violations += len(out.Violations)
		if j.mutated {
			st.MutatedRounds++
		}
		if out.Err != nil {
			st.Errors++
			r.Errors++
		}
		if rcv := out.Recovery; rcv != nil {
			st.ProbedRounds++
			st.ProbeOps += rcv.Ops
			st.ProbeRetries += rcv.Retries
			if rcv.Recovered {
				st.RecoveredRounds++
				if ns := rcv.RecoveryTime.Nanoseconds(); ns > st.MaxRecoveryNs {
					st.MaxRecoveryNs = ns
				}
			}
			for g, d := range rcv.FirstOk {
				if st.RecoveryNs == nil {
					st.RecoveryNs = make(map[string]int64)
				}
				if ns := d.Nanoseconds(); ns > st.RecoveryNs[g] {
					st.RecoveryNs[g] = ns
				}
			}
		}
		if out.Err == nil {
			// Coverage accounting only for rounds that actually ran to
			// judgment: a deploy failure or wedged round has no signature.
			set := covSets[name]
			if set == nil {
				set = &coverage.Set{}
				covSets[name] = set
			}
			if set.Add(out.Coverage) {
				st.Signatures++
			}
			if corpus.Add(name, out.Coverage, j.sched) {
				st.CorpusNew++
			}
		}
		for _, v := range out.Violations {
			*found = append(*found, Finding{
				Violation: v,
				Round:     j.round,
				Schedule:  j.sched,
				History:   out.History,
			})
		}
	}
}

func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return "  error=" + err.Error()
}

func recoverySuffix(rcv *RecoveryStats) string {
	switch {
	case rcv == nil:
		return ""
	case rcv.Recovered:
		return fmt.Sprintf("  recovery=%v", rcv.RecoveryTime)
	default:
		return "  recovery=unconfirmed"
	}
}

// shrinkAll minimizes one schedule per unique finding, in parallel up
// to the worker bound.
func (r *Result) shrinkAll(cfg Config) {
	byName := make(map[string]Target, len(cfg.Targets))
	for _, t := range cfg.Targets {
		byName[t.Name()] = t
	}
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	var logMu sync.Mutex
	for i := range r.Findings {
		f := &r.Findings[i]
		t, ok := byName[f.Violation.Target]
		if !ok {
			continue
		}
		if f.Violation.Invariant == "engine-error" {
			// Re-running a wedged or panicking round would cost a
			// watchdog timeout per shrink attempt; the schedule itself
			// is the reproducer.
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		//neat:allow goaccount -- shrink worker pool: driver-side re-runs, outside any simulated clock
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// The shrink re-runs carry the round options — including the
			// probe phase and its RTO — or recovery violations could
			// never re-reproduce during minimization.
			shrunk, confirmed := shrink(t, f.Schedule, f.Violation.Signature(), cfg.ShrinkAttempts,
				runOpts{virtual: cfg.VirtualTime, settle: cfg.Settle,
					noProbe: cfg.NoProbe, rto: cfg.RTO, watchdog: cfg.RoundTimeout})
			// Only a schedule that actually re-reproduced the signature
			// is reported as a minimal reproducer.
			if confirmed {
				f.Shrunk = &shrunk
			}
			if cfg.Log != nil {
				logMu.Lock()
				if confirmed {
					fmt.Fprintf(cfg.Log, "shrunk %s: %d faults/%d ops -> %d faults/%d ops\n",
						f.Violation.Signature(), len(f.Schedule.Faults), f.Schedule.Ops,
						len(shrunk.Faults), shrunk.Ops)
				} else {
					fmt.Fprintf(cfg.Log, "shrink %s: violation did not re-reproduce; keeping the original schedule unconfirmed\n",
						f.Violation.Signature())
				}
				logMu.Unlock()
			}
		}()
	}
	wg.Wait()
	sortFindings(r.Findings)
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Count != fs[j].Count {
			return fs[i].Count > fs[j].Count
		}
		return fs[i].Signature() < fs[j].Signature()
	})
}

// ids builds a node-ID slice "prefix1".."prefixN".
func ids(prefix string, n int) []netsim.NodeID {
	out := make([]netsim.NodeID, n)
	for i := range out {
		out[i] = netsim.NodeID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}
