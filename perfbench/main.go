// Command perfbench is the repository's outside-in campaign benchmark.
// It drives campaign.Run over generated fault schedules in a closed
// loop, times the calls it makes into each layer through wrapped
// targets, and prints every metric by name with its unit. The program
// under test is unchanged: the wrappers forward every call.
//
// Usage (normally through run.py, which builds this package and adds
// the set-up time):
//
//	perfbench -workload campaign|shrink -seed N -seconds S -trace 0|1 [-spans FILE]
//	perfbench -workload W -seed N -setup-spawn-ns T
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when the
// campaign's output is structurally wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"neat/internal/campaign"
)

var errRefused = errors.New("perfbench: round refused by the set-up measurement")

// workload is one closed-loop campaign configuration. Every workload
// runs fresh Generate schedules over every fault kind on virtual time,
// with probing on, the default settle and RTO, and one worker per CPU.
type workload struct {
	name string
	// shrink runs only the flawed targets (the registered ones that do
	// not declare themselves safe, the ones with findings to shrink),
	// and minimizes each batch's unique findings after its search
	// phase.
	shrink bool
}

// roundsPerBatch is how many schedules each target runs per
// campaign.Run call; batches repeat until the run's time is up.
const roundsPerBatch = 20

// runConfig is one invocation's settings.
type runConfig struct {
	workload workload
	seed     int64
	seconds  time.Duration
	traced   bool
	// rounds is the schedules per target per batch (roundsPerBatch
	// unless a test shortens it).
	rounds int
	// spans, if set, is where a traced run writes its spans.
	spans string
}

var workloads = map[string]workload{
	"campaign": {name: "campaign"},
	"shrink":   {name: "shrink", shrink: true},
}

func (w workload) workers() int { return runtime.NumCPU() }

func (w workload) targetNames() []string {
	if !w.shrink {
		return campaign.Names()
	}
	safe := map[string]bool{}
	for _, n := range campaign.SafeNames() {
		safe[n] = true
	}
	var out []string
	for _, n := range campaign.Names() {
		if !safe[n] {
			out = append(out, n)
		}
	}
	return out
}

// wrapTargets resolves the workload's targets and wraps each for tr.
func (w workload) wrapTargets(tr *tracer) []campaign.Target {
	var out []campaign.Target
	for _, n := range w.targetNames() {
		t, _ := campaign.Lookup(n)
		out = append(out, tr.wrap(t))
	}
	return out
}

// batchSeed derives the campaign seed of one batch from the run seed.
func batchSeed(seed int64, batch int) int64 { return seed*1000 + int64(batch) }

// roundLog receives the campaign's per-round log lines. It counts the
// search rounds and the failed ones, and marks the end of the search
// phase when the last expected round line arrives: every round has
// returned by then, and every later Deploy is a shrink re-run.
type roundLog struct {
	tr     *tracer
	safe   map[string]bool
	expect int

	mu       sync.Mutex
	rounds   int
	failures []string // the failed rounds' log lines
	boundary time.Duration
	alloc    uint64 // TotalAlloc at the boundary
}

func (l *roundLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "round" {
			continue
		}
		l.rounds++
		if strings.Contains(line, "  error=") || (l.safe[f[2]] && f[3] != "violations=0") {
			l.failures = append(l.failures, line)
		}
		if l.rounds == l.expect {
			l.boundary = l.tr.since()
			l.tr.inShrink.Store(true)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			l.alloc = ms.TotalAlloc
		}
	}
	return len(p), nil
}

// pass accumulates the batches measured under one tracer.
type pass struct {
	tr         *tracer
	workers    int
	shrink     bool
	rounds     int
	targets    []campaign.Target
	safe       map[string]bool
	inWorkload map[string]bool

	batches                int
	searchWall, shrinkWall time.Duration
	searchRounds, failed   int
	findings, confirmed    int
	allocBytes             uint64
	problems               []string
	// notes describe the failed rounds: their log lines and the
	// findings on safe targets.
	notes []string
}

func (p *pass) problemf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func newPass(w workload, traced bool, rounds int) *pass {
	tr := newTracer(traced)
	p := &pass{tr: tr, workers: w.workers(), shrink: w.shrink, rounds: rounds, targets: w.wrapTargets(tr),
		safe: map[string]bool{}, inWorkload: map[string]bool{}}
	for _, t := range p.targets {
		p.inWorkload[t.Name()] = true
		if s, ok := t.(campaign.SafeTarget); ok && s.Safe() {
			p.safe[t.Name()] = true
		}
	}
	return p
}

// runBatch runs one campaign.Run of p.rounds schedules per target:
// the search phase, then the shrink phase if the workload shrinks. It
// returns the batch's wall time.
func (p *pass) runBatch(seed int64, b int) time.Duration {
	tr := p.tr
	log := &roundLog{tr: tr, safe: p.safe, expect: p.rounds * len(p.targets)}
	tr.inShrink.Store(false)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := tr.since()
	res := campaign.Run(campaign.Config{
		Targets:     p.targets,
		Rounds:      p.rounds,
		Seed:        batchSeed(seed, b),
		VirtualTime: true,
		Workers:     p.workers,
		Shrink:      p.shrink,
		Log:         log,
	})
	end := tr.since()
	p.batches++
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.rounds != log.expect {
		p.problemf("batch %d logged %d rounds, want %d", b, log.rounds, log.expect)
		return end - start
	}
	p.searchRounds += log.rounds
	p.failed += len(log.failures)
	for _, line := range log.failures {
		p.notes = append(p.notes, fmt.Sprintf("failed round, batch %d: %s", b, strings.TrimSpace(line)))
	}
	p.searchWall += log.boundary - start
	p.shrinkWall += end - log.boundary
	p.allocBytes += log.alloc - ms.TotalAlloc
	p.checkResult(b, res)
	return end - start
}

// finish records the problems only the whole pass can show.
func (p *pass) finish() {
	if p.searchRounds == 0 {
		p.problemf("no round completed")
	}
	if p.shrink && p.findings == 0 {
		p.problemf("no finding to shrink: %d flawed targets ran %d rounds each per batch",
			len(p.inWorkload)-len(p.safe), p.rounds)
	}
}

// checkResult checks one batch's campaign result for structural
// errors and counts its findings. Failed rounds are counted from the
// log, not here: they lower the result, they do not invalidate it.
func (p *pass) checkResult(b int, res *campaign.Result) {
	total := 0
	for _, name := range res.Targets {
		total += res.Stats[name].Rounds
	}
	if total != p.rounds*len(res.Targets) {
		p.problemf("batch %d: result counts %d rounds, want %d", b, total, p.rounds*len(res.Targets))
	}
	for _, f := range res.Findings {
		if !p.inWorkload[f.Violation.Target] {
			p.problemf("batch %d: finding for %q, which did not run", b, f.Violation.Target)
		}
		if p.safe[f.Violation.Target] {
			detail := f.Violation.Detail
			if len(detail) > 300 {
				detail = detail[:300] + "..."
			}
			p.notes = append(p.notes, fmt.Sprintf("safe-target finding, batch %d round %d (%d times): %s: %s",
				b, f.Round, f.Count, f.Signature(), detail))
		}
		if f.Violation.Invariant == "engine-error" {
			continue // a failed round, counted from the log; never shrunk
		}
		p.findings++
		if !p.shrink || f.Shrunk == nil {
			continue // unconfirmed: lowers campaign.shrink_confirmed_ratio
		}
		p.confirmed++
		if len(f.Shrunk.Faults) > len(f.Schedule.Faults) || f.Shrunk.Ops > f.Schedule.Ops {
			p.problemf("batch %d: %s shrank from %d faults/%d ops to a larger %d faults/%d ops",
				b, f.Signature(), len(f.Schedule.Faults), f.Schedule.Ops, len(f.Shrunk.Faults), f.Shrunk.Ops)
		}
	}
}

func (p *pass) roundsPerS() float64 { return ratio(float64(p.searchRounds), p.searchWall.Seconds()) }

// searchLatencies returns the search rounds' Deploy-to-Close spans in
// milliseconds.
func (p *pass) searchLatencies() dist {
	var xs []float64
	for _, r := range p.tr.snapshot() {
		if r.search && !r.deployErr {
			xs = append(xs, ms(r.end-r.start))
		}
	}
	return newDist(xs)
}

// shrinkPerFinding is the shrink phases' wall time per unique finding.
func (p *pass) shrinkPerFinding() metric {
	if !p.shrink {
		return metric{0, "s", "shrink off"}
	}
	return metric{ratio(p.shrinkWall.Seconds(), float64(p.findings)), "s",
		fmt.Sprintf("%.3fs shrinking %d unique findings, %d confirmed", p.shrinkWall.Seconds(), p.findings, p.confirmed)}
}

// metric is one reported number with its unit; note carries the
// sample count or base it rests on and is printed, not emitted.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the untraced metrics of one pass.
func endToEnd(p *pass) map[string]metric {
	lat := p.searchLatencies()
	return map[string]metric{
		"rounds_per_s": {p.roundsPerS(), "1/s",
			fmt.Sprintf("%d search rounds in %.3fs over %d batches", p.searchRounds, p.searchWall.Seconds(), p.batches)},
		"round_p50_ms": {lat.pct(50), "ms", lat.sampleNote(50)},
		"round_p95_ms": {lat.pct(95), "ms", lat.sampleNote(95)},
		"alloc_mb_per_round": {ratio(float64(p.allocBytes)/1e6, float64(p.searchRounds)), "MB",
			fmt.Sprintf("%d bytes allocated over %d search rounds", p.allocBytes, p.searchRounds)},
	}
}

func main() {
	name := flag.String("workload", "campaign", "workload: campaign or shrink")
	seed := flag.Int64("seed", 1, "workload seed; every batch's campaign seed derives from it")
	seconds := flag.Int("seconds", 10, "how long the closed loop runs; the last batch finishes past it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	spans := flag.String("spans", "", "traced runs: write the traced pass's spans to this file, one JSON object a line")
	spawnNs := flag.Int64("setup-spawn-ns", 0,
		"measure set-up only: seconds from this wall-clock UnixNano (taken by the parent before spawning) to the first Deploy")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %d -trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, rounds: roundsPerBatch, spans: *spans}
	if *spawnNs != 0 {
		os.Exit(measureSetup(os.Stdout, cfg, *spawnNs))
	}
	os.Exit(run(os.Stdout, cfg))
}

// measureSetup runs the workload's first batch with every Deploy
// refused and reports the time from the parent's spawn to the first
// Deploy call: process start, package initialization, target
// selection and schedule generation.
func measureSetup(out io.Writer, cfg runConfig, spawnNs int64) int {
	tr := newTracer(false)
	tr.refuse = true
	campaign.Run(campaign.Config{
		Targets: cfg.workload.wrapTargets(tr), Rounds: cfg.rounds, Seed: batchSeed(cfg.seed, 0),
		VirtualTime: true, Workers: cfg.workload.workers(), Shrink: cfg.workload.shrink,
	})
	first := tr.first.Load()
	if first == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no round started")
		return 1
	}
	fmt.Fprintf(out, "{\"setup_s\": %v}\n", float64(first-spawnNs)/1e9)
	return 0
}

// loop runs batches until the next one would, by the last one's
// length, end more than half a batch past the deadline; the first
// batch always runs. batch runs batch b and returns its wall time.
func loop(tr *tracer, seconds time.Duration, batch func(b int) time.Duration) {
	for b := 0; ; b++ {
		took := batch(b)
		if tr.since()+took/2 >= seconds {
			return
		}
	}
}

func run(out io.Writer, cfg runConfig) int {
	w := cfg.workload
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%v trace=%v nproc=%d gomaxprocs=%d go=%s workers=%d targets=%d rounds_per_batch=%d\n",
		w.name, cfg.seed, cfg.seconds.Seconds(), cfg.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		w.workers(), len(w.targetNames()), cfg.rounds)
	var problems, notes []string
	var rep report
	if !cfg.traced {
		p := newPass(w, false, cfg.rounds)
		loop(p.tr, cfg.seconds, func(b int) time.Duration { return p.runBatch(cfg.seed, b) })
		p.finish()
		problems, notes = p.problems, p.notes
		rep = report{Attempted: p.searchRounds, Failed: p.failed, Metrics: endToEnd(p)}
	} else {
		// Untraced and traced batches alternate over the same
		// schedules, swapping which goes first so neither always
		// inherits the other's garbage; the ratio of their
		// rounds_per_s is the tracing overhead.
		plain, tp := newPass(w, false, cfg.rounds), newPass(w, true, cfg.rounds)
		loop(plain.tr, 2*cfg.seconds, func(b int) time.Duration {
			if b%2 == 1 {
				return tp.runBatch(cfg.seed, b) + plain.runBatch(cfg.seed, b)
			}
			return plain.runBatch(cfg.seed, b) + tp.runBatch(cfg.seed, b)
		})
		plain.finish()
		tp.finish()
		problems = append(plain.problems, tp.problems...)
		notes = append(plain.notes, tp.notes...)
		m, err := perLayer(plain, tp)
		if err != nil {
			problems = append(problems, err.Error())
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, tp.tr.snapshot()); err != nil {
				problems = append(problems, err.Error())
			}
		}
		rep = report{Attempted: plain.searchRounds + tp.searchRounds, Failed: plain.failed + tp.failed, Metrics: m}
	}
	rep.Correct = len(problems) == 0
	for _, n := range notes {
		fmt.Fprintln(out, "#", n)
	}
	for _, pr := range problems {
		fmt.Fprintln(out, "# problem:", pr)
	}
	fmt.Fprintf(out, "# failed_ratio = %v (%d failed of %d rounds attempted)\n",
		ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(out, "# %s = %.6g %s", n, m.Value, m.Unit)
		if m.note != "" {
			fmt.Fprintf(out, "  (%s)", m.note)
		}
		fmt.Fprintln(out)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the report:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
