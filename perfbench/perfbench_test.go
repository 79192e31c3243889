package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"neat/internal/campaign"
	"neat/internal/clock"
	"neat/internal/core"
	"neat/internal/history"
	"neat/internal/netsim"
)

// innerInstance unwraps a wrapped instance.
func innerInstance(inst campaign.Instance) campaign.Instance {
	switch w := inst.(type) {
	case *instance:
		return w.inner
	case proberInstance:
		return w.inner
	case diskInstance:
		return w.inner
	case proberDiskInstance:
		return w.inner
	}
	return nil
}

// deploy deploys target on a fresh virtual-time engine laid out like a
// campaign round's, returning the instance and a teardown.
func deploy(t *testing.T, target campaign.Target) (campaign.Instance, func()) {
	t.Helper()
	sim := clock.NewSim()
	eng := core.NewEngine(core.Options{Net: netsim.Options{Clock: sim}})
	topo := target.Topology()
	for _, id := range topo.Servers {
		eng.AddNode(id, core.RoleServer)
	}
	for _, id := range topo.Services {
		eng.AddNode(id, core.RoleService)
	}
	for _, id := range topo.Clients {
		eng.AddNode(id, core.RoleClient)
	}
	inst, err := target.Deploy(eng, history.NewRecorder(eng.Clock()))
	if err != nil {
		eng.Shutdown()
		sim.Stop()
		t.Fatalf("deploying %s: %v", target.Name(), err)
	}
	return inst, func() {
		inst.Close()
		eng.Shutdown()
		sim.Stop()
	}
}

// TestWrappersForwardOptionalInterfaces checks, over every registered
// target, that a wrapped target and its instances present exactly the
// optional interfaces of the inner ones.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(true)
	var safe []string
	for _, name := range campaign.Names() {
		inner, _ := campaign.Lookup(name)
		w := tr.wrap(inner)
		is, innerSafe := inner.(campaign.SafeTarget)
		ws, wrapSafe := w.(campaign.SafeTarget)
		if innerSafe != wrapSafe {
			t.Fatalf("%s: inner SafeTarget=%v, wrapped %v", name, innerSafe, wrapSafe)
		}
		if wrapSafe && ws.Safe() != is.Safe() {
			t.Fatalf("%s: Safe() %v through the wrapper, %v inside", name, ws.Safe(), is.Safe())
		}
		if wrapSafe && ws.Safe() {
			safe = append(safe, name)
		}

		inst, teardown := deploy(t, w)
		in := innerInstance(inst)
		if in == nil {
			teardown()
			t.Fatalf("%s: Deploy returned an unwrapped %T", name, inst)
		}
		_, innerProber := in.(campaign.Prober)
		_, wrapProber := inst.(campaign.Prober)
		_, innerDisk := in.(campaign.DiskFaulter)
		_, wrapDisk := inst.(campaign.DiskFaulter)
		teardown()
		if innerProber != wrapProber || innerDisk != wrapDisk {
			t.Fatalf("%s: inner Prober=%v DiskFaulter=%v, wrapped Prober=%v DiskFaulter=%v",
				name, innerProber, innerDisk, wrapProber, wrapDisk)
		}
		if (name == "dfs" || name == "dfs/safe") && !wrapDisk {
			t.Fatalf("%s lost DiskFaulter through the wrapper", name)
		}
	}
	sort.Strings(safe)
	if want := campaign.SafeNames(); !reflect.DeepEqual(safe, want) {
		t.Fatalf("safe set through the wrappers = %v, want %v", safe, want)
	}
}

// TestTracedRoundRecordsEveryLayer runs one virtual round per
// registered target through a traced wrapper, with disk faults in the
// schedule so dfs needs its DiskFaulter, and checks the round's spans:
// every Prober target probes, every round is checked, and the counters
// read at Close are filled.
func TestTracedRoundRecordsEveryLayer(t *testing.T) {
	tr := newTracer(true)
	for i, name := range campaign.Names() {
		inner, _ := campaign.Lookup(name)
		w := tr.wrap(inner)
		sched := campaign.Generate(rand.New(rand.NewSource(int64(i+1))), w.Topology(), campaign.FaultDisk, campaign.FaultComplete)
		out := campaign.RunScheduleVirtual(w, sched)
		if out.Err != nil {
			t.Fatalf("%s: round failed through the wrapper: %v", name, out.Err)
		}
	}
	rounds := tr.snapshot()
	if len(rounds) != len(campaign.Names()) {
		t.Fatalf("recorded %d rounds, want %d", len(rounds), len(campaign.Names()))
	}
	for _, r := range rounds {
		count := map[string]int{}
		for _, s := range r.spans {
			count[s.name]++
			if s.end < s.start {
				t.Fatalf("%s: span %s ends before it starts", r.target, s.name)
			}
		}
		if count[spanRound] != 1 || count[spanDeploy] != 1 || count[spanObserve] != 1 || count[spanClose] != 1 {
			t.Fatalf("%s: spans %v, want one round, deploy, observe and close", r.target, count)
		}
		if count[spanStep] == 0 || count[spanProbe] == 0 || r.probes == 0 {
			t.Fatalf("%s: spans %v, want steps and probe passes", r.target, count)
		}
		if r.checks == 0 || count[spanCheck] != r.checks || r.checkedOps != r.observeLen {
			t.Fatalf("%s: %d checks (%d spans) judged %d ops, Observe left %d",
				r.target, r.checks, count[spanCheck], r.checkedOps, r.observeLen)
		}
		if r.net.Sent == 0 || r.virtual <= 0 || r.fired == 0 {
			t.Fatalf("%s: counters at Close: sent=%d virtual=%v fired=%d", r.target, r.net.Sent, r.virtual, r.fired)
		}
		if self := r.end - r.start - childTime(r); self < 0 {
			t.Fatalf("%s: child spans cover more than the round", r.target)
		}
	}

	path := t.TempDir() + "/spans.jsonl"
	if err := writeSpans(path, rounds); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rounds {
		want += len(r.spans)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != want {
		t.Fatalf("wrote %d span lines, want %d", len(lines), want)
	}
	var first struct {
		Name   string `json:"name"`
		Parent int    `json:"parent"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Name != spanRound || first.Parent != -1 {
		t.Fatalf("first span line %q (%v), want the round span", lines[0], err)
	}
}

func TestPercentiles(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for _, c := range []struct {
		p    float64
		want float64
		tail int
	}{
		{50, 5, 5}, {90, 9, 1}, {95, 10, 0}, {100, 10, 0}, {10, 1, 9},
	} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
		if got := d.beyond(c.p); got != c.tail {
			t.Errorf("beyond p%v = %d, want %d", c.p, got, c.tail)
		}
	}
	// 200 samples leave exactly ten beyond the p95.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := newDist(xs).beyond(95); got != 10 {
		t.Errorf("200 samples: %d beyond p95, want 10", got)
	}
	if got := newDist(xs).sampleNote(95); got != "n=200, 10 beyond p95" {
		t.Errorf("sample note %q", got)
	}
	var empty dist
	if empty.pct(50) != 0 || empty.beyond(95) != 0 {
		t.Error("empty sample must report zeros")
	}
}

// TestRoundLogCountsFailures feeds the log parser the runner's line
// shapes: an error suffix, or any violation on a safe target, fails the
// round; a violation on a flawed target does not.
func TestRoundLogCountsFailures(t *testing.T) {
	tr := newTracer(false)
	l := &roundLog{tr: tr, safe: map[string]bool{"raftkv": true}, expect: 4}
	for _, line := range []string{
		"round   0  kvstore/quorum         violations=2  recovery=0s\n",
		"round   1  raftkv                 violations=0\n",
		"round   2  raftkv                 violations=1\n",
		"shrunk kvstore/quorum|durability|k: 3 faults/40 ops -> 1 faults/9 ops\n",
		"round   3  mapred                 violations=0  error=campaign: round wedged\n",
	} {
		if tr.inShrink.Load() {
			t.Fatal("search phase ended before the last round line")
		}
		if _, err := l.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if l.rounds != 4 || len(l.failures) != 2 || !tr.inShrink.Load() {
		t.Fatalf("rounds=%d failures=%q inShrink=%v, want 4, 2, true", l.rounds, l.failures, tr.inShrink.Load())
	}
}

// TestCheckResultFlagsStructuralErrors: a reproducer larger than its
// original, or a finding for a target that did not run, makes the
// output incorrect; an unconfirmed reproducer only lowers the
// confirmed ratio.
func TestCheckResultFlagsStructuralErrors(t *testing.T) {
	p := &pass{shrink: true, rounds: 1, inWorkload: map[string]bool{"dfs": true}}
	orig := campaign.Schedule{Ops: 10, Faults: []campaign.Fault{{Kind: campaign.FaultCrash}}}
	smaller := campaign.Schedule{Ops: 5}
	larger := campaign.Schedule{Ops: 12}
	res := &campaign.Result{
		Targets: []string{"dfs"},
		Stats:   map[string]*campaign.TargetStats{"dfs": {Rounds: 1}},
		Findings: []campaign.Finding{
			{Violation: campaign.Violation{Target: "dfs", Invariant: "a"}, Schedule: orig, Shrunk: &smaller},
			{Violation: campaign.Violation{Target: "dfs", Invariant: "b"}, Schedule: orig},
		},
	}
	p.checkResult(0, res)
	if len(p.problems) != 0 || p.findings != 2 || p.confirmed != 1 {
		t.Fatalf("problems=%v findings=%d confirmed=%d, want none, 2, 1", p.problems, p.findings, p.confirmed)
	}
	res.Findings = append(res.Findings,
		campaign.Finding{Violation: campaign.Violation{Target: "dfs", Invariant: "c"}, Schedule: orig, Shrunk: &larger},
		campaign.Finding{Violation: campaign.Violation{Target: "mapred", Invariant: "d"}, Schedule: orig})
	p.checkResult(1, res)
	if len(p.problems) != 2 {
		t.Fatalf("problems=%v, want the larger reproducer and the foreign target", p.problems)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs each workload for one short batch and checks the
// report against BENCHMARK.json: every declared metric with its unit,
// and nothing else (setup_s is added by run.py).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			if traced && wl.Name != "campaign" {
				continue // one traced smoke run covers the per-layer set
			}
			w, ok := workloads[wl.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
			}
			var out bytes.Buffer
			code := run(&out, runConfig{workload: w, seed: 1, seconds: time.Second, traced: traced, rounds: 3})
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s: last line is not the report: %v\n%s", wl.Name, err, out.String())
			}
			if code != 0 || !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s traced=%v: exit %d, report %+v\n%s", wl.Name, traced, code, rep, out.String())
			}
			// Whole batches of 3 rounds per target; a traced run counts
			// its untraced and traced pass.
			if batch := 3 * len(w.targetNames()); rep.Attempted == 0 || rep.Attempted%batch != 0 {
				t.Fatalf("%s: attempted %d rounds, want whole batches of %d", wl.Name, rep.Attempted, batch)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					if m.Name != "setup_s" {
						want[m.Name] = m.Unit
					}
				}
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", wl.Name, traced, got, want)
			}
		}
	}
}

// TestSetupMeasurement runs the set-up mode: every Deploy is refused,
// and the first one's time is reported.
func TestSetupMeasurement(t *testing.T) {
	var out bytes.Buffer
	spawn := wallNow().UnixNano()
	if code := measureSetup(&out, runConfig{workload: workloads["shrink"], seed: 1, rounds: 2}, spawn); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	var got struct {
		Setup float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil || got.Setup <= 0 || got.Setup > 30 {
		t.Fatalf("set-up report %q (%v)", out.String(), err)
	}
}
