package main

import (
	"fmt"
	"strings"
	"time"

	"neat/internal/campaign"
)

// Layer-probe loop sizes: enough calls that one repetition lasts
// milliseconds, not microseconds.
const (
	probeClockSleeps = 2000
	probeCalls       = 2000
	probeSends       = 100000
)

// perLayer computes the per-layer metrics from the traced pass, the
// tracing overhead against the untraced pass, and the layer probes.
func perLayer(plain, tp *pass) (map[string]metric, error) {
	m := map[string]metric{}
	var all, search, shrinkRuns []*roundRec
	for _, r := range tp.tr.snapshot() {
		if r.deployErr {
			continue
		}
		all = append(all, r)
		if r.search {
			search = append(search, r)
		} else {
			shrinkRuns = append(shrinkRuns, r)
		}
	}
	rounds := float64(len(all))

	// campaign runner.
	var roundMs, selfMs []float64
	var searchBusy, shrinkBusy time.Duration
	perTarget := map[string][]float64{}
	for _, r := range search {
		d := r.end - r.start
		searchBusy += d
		roundMs = append(roundMs, ms(d))
		selfMs = append(selfMs, ms(d-childTime(r)))
		perTarget[r.target] = append(perTarget[r.target], ms(d))
	}
	for _, r := range shrinkRuns {
		shrinkBusy += r.end - r.start
	}
	rd, sd := newDist(roundMs), newDist(selfMs)
	m["campaign.round_ms.p50"] = metric{rd.pct(50), "ms", rd.sampleNote(50)}
	m["campaign.round_ms.p95"] = metric{rd.pct(95), "ms", rd.sampleNote(95)}
	m["campaign.round_self_ms.p50"] = metric{sd.pct(50), "ms", sd.sampleNote(50)}
	m["campaign.worker_busy_ratio"] = metric{
		ratio(searchBusy.Seconds(), float64(tp.workers)*tp.searchWall.Seconds()), "ratio",
		fmt.Sprintf("search phase: %.3fs of round spans over %d workers x %.3fs", searchBusy.Seconds(), tp.workers, tp.searchWall.Seconds())}
	m["campaign.shrink_busy_ratio"] = metric{
		ratio(shrinkBusy.Seconds(), float64(tp.workers)*tp.shrinkWall.Seconds()), "ratio",
		fmt.Sprintf("shrink phase: %.3fs of round spans over %d workers x %.3fs", shrinkBusy.Seconds(), tp.workers, tp.shrinkWall.Seconds())}
	m["campaign.shrink_reruns_per_finding"] = metric{ratio(float64(len(shrinkRuns)), float64(tp.findings)), "count",
		fmt.Sprintf("%d re-runs for %d unique findings", len(shrinkRuns), tp.findings)}
	// Heavy-tailed: a few dfs findings, whose Observe polls in 1 ms
	// virtual steps, dominate it, so it varies widely between seeds.
	m["campaign.shrink_s_per_finding"] = tp.shrinkPerFinding()
	m["campaign.shrink_confirmed_ratio"] = metric{ratio(float64(tp.confirmed), float64(tp.findings)), "ratio",
		fmt.Sprintf("%d of %d findings confirmed", tp.confirmed, tp.findings)}
	m["campaign.rounds_executed"] = metric{rounds, "count",
		fmt.Sprintf("%d search rounds and %d shrink re-runs", len(search), len(shrinkRuns))}
	for _, name := range campaign.Names() {
		d := newDist(perTarget[name])
		m["round_ms.p50."+metricSuffix(name)] = metric{d.pct(50), "ms", d.sampleNote(50)}
	}

	// Target systems, through the Target/Instance interfaces.
	spans := spansByName(all)
	layerPct := func(name, span string, p float64) {
		d := newDist(spans[span])
		m[name] = metric{d.pct(p), "ms", d.sampleNote(p)}
	}
	layerPct("target.deploy_ms.p50", spanDeploy, 50)
	layerPct("target.step_ms.p50", spanStep, 50)
	layerPct("target.step_ms.p95", spanStep, 95)
	layerPct("target.probe_ms.p50", spanProbe, 50)
	layerPct("target.observe_ms.p50", spanObserve, 50)
	layerPct("target.observe_ms.p95", spanObserve, 95)
	var probes, stepOps, checkedRounds, checkedOps, violations, fired int
	var checkTime, wall, virtual time.Duration
	var sent, delivered, dropped uint64
	for _, r := range all {
		probes += r.probes
		stepOps += r.stepOps
		if r.checks > 0 {
			checkedRounds++
			checkedOps += r.checkedOps
			violations += r.violations
		}
		for _, s := range r.spans {
			if s.name == spanCheck {
				checkTime += s.end - s.start
			}
		}
		wall += r.end - r.start
		virtual += r.virtual
		fired += r.fired
		n := r.net
		sent += n.Sent
		delivered += n.Delivered
		dropped += n.DroppedEgress + n.DroppedSwitch + n.DroppedIngress + n.DroppedRandom +
			n.DroppedChaos + n.DroppedLate + n.DroppedDown
	}
	base := fmt.Sprintf("over %d rounds", len(all))
	m["target.probe_passes_per_round"] = metric{ratio(float64(probes), rounds), "count", base}
	m["target.ops_per_round"] = metric{ratio(float64(stepOps), rounds), "count", base}

	// history: the checkers, timed through the wrapped Checks.
	cr := float64(checkedRounds)
	cbase := fmt.Sprintf("over %d checked rounds, %d ops", checkedRounds, checkedOps)
	m["history.check_us_per_round"] = metric{ratio(us(checkTime), cr), "us", cbase}
	m["history.ops_per_round"] = metric{ratio(float64(checkedOps), cr), "count", cbase}
	m["history.check_ns_per_op"] = metric{ratio(float64(checkTime.Nanoseconds()), float64(checkedOps)), "ns", cbase}
	m["history.violations_per_round"] = metric{ratio(float64(violations), cr), "count", cbase}

	// netsim, from the fabric's counters at Close.
	pbase := fmt.Sprintf("%d packets %s", sent, base)
	m["netsim.sent_per_round"] = metric{ratio(float64(sent), rounds), "count", base}
	m["netsim.delivered_ratio"] = metric{ratio(float64(delivered), float64(sent)), "ratio", pbase}
	m["netsim.dropped_per_round"] = metric{ratio(float64(dropped), rounds), "count", base}
	m["netsim.wall_us_per_packet"] = metric{ratio(us(wall), float64(sent)), "us", pbase}

	// clock, from each round's Sim.
	fbase := fmt.Sprintf("%d fired timers %s", fired, base)
	m["clock.virtual_ms_per_round"] = metric{ratio(ms(virtual), rounds), "ms", base}
	m["clock.virtual_per_wall"] = metric{ratio(virtual.Seconds(), wall.Seconds()), "ratio", base}
	m["clock.fired_per_round"] = metric{ratio(float64(fired), rounds), "count", fbase}
	m["clock.wall_us_per_fire"] = metric{ratio(us(wall), float64(fired)), "us", fbase}

	// Tracing overhead: the same schedules, untraced then traced.
	m["trace.untraced_rounds_per_s"] = metric{plain.roundsPerS(), "1/s", fmt.Sprintf("%d search rounds", plain.searchRounds)}
	m["trace.traced_rounds_per_s"] = metric{tp.roundsPerS(), "1/s", fmt.Sprintf("%d search rounds", tp.searchRounds)}
	m["trace.overhead_ratio"] = metric{ratio(plain.roundsPerS(), tp.roundsPerS()), "ratio", "untraced over traced rounds_per_s"}

	// Layer probes.
	adv := probeClockAdvance(probeClockSleeps)
	m["probe.clock.advance_us"] = metric{us(adv), "us", fmt.Sprintf("median of %d x %d sleeps", probeReps, probeClockSleeps)}
	call, err := probeTransportCall(probeCalls)
	if err != nil {
		return m, err
	}
	m["probe.transport.call_us"] = metric{us(call), "us", fmt.Sprintf("median of %d x %d calls", probeReps, probeCalls)}
	send, err := probeNetsimSend(probeSends)
	if err != nil {
		return m, err
	}
	m["probe.netsim.send_ns"] = metric{float64(send.Nanoseconds()), "ns", fmt.Sprintf("median of %d x %d sends", probeReps, probeSends)}
	return m, nil
}

// childTime sums a round's child spans. They run one after another on
// the round's goroutine, so the sum is the part of the round they
// cover.
func childTime(r *roundRec) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.parent >= 0 {
			d += s.end - s.start
		}
	}
	return d
}

// spansByName collects the child-span durations of rounds in
// milliseconds, keyed by span name.
func spansByName(rounds []*roundRec) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rounds {
		for _, s := range r.spans {
			if s.parent >= 0 {
				out[s.name] = append(out[s.name], ms(s.end-s.start))
			}
		}
	}
	return out
}

// metricSuffix turns a target name into a metric-name suffix:
// "kvstore/quorum" becomes "kvstore_quorum".
func metricSuffix(target string) string { return strings.ReplaceAll(target, "/", "_") }
