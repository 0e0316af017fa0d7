package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"octant/internal/stats"
)

// sources are the evidence stages whose self time the ledger reports.
var sources = []string{"latency", "router", "hint", "rdns", "geodb", "geography"}

// runTraced is the --trace 1 run. It drives the workload twice, each on a
// fresh stack for half the run: untraced first (the process metrics and
// the latency baseline), then with explain on and every wrapper recording
// spans (everything else). Only this run reports per-layer metrics.
func runTraced(ctx context.Context, w workload, cfg runConfig, rng *rand.Rand) (*result, []string, error) {
	half := cfg.dur / 2

	sA, _, err := newStack(w.cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	var p0 procSnap
	lA, err := w.drive(ctx, sA, rng, half, driveOpts{refOnly: true, onTimed: func() { p0 = procNow() }})
	p1 := procNow()
	var vA verdict
	if err == nil {
		vA, err = sA.verify(lA.reqs, clientThreads(), cfg.perturb)
	}
	sA.close()
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	sB, _, err := newStack(w.cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	defer sB.close()
	var c0 counters
	lB, err := drive(ctx, w, sB, rng, half, driveOpts{explain: true, refOnly: true, onTimed: func() {
		tr.reset()
		c0 = sB.counters(ctx)
	}})
	if err != nil {
		return nil, nil, err
	}
	c1 := sB.counters(ctx)
	vB, err := sB.verify(lB.reqs, clientThreads(), cfg.perturb)
	if err != nil {
		return nil, nil, err
	}

	spans, kids := tr.snapshot()
	rows, overheads := buildLedger(spans, kids, lB.timed)
	m := perLayer(sB, lB, c0, c1, spans, kids, rows, overheads)
	for name, v := range processMetrics(p0, p1, targetsServed(lA.timed)) {
		m[name] = v
	}
	m["bench.trace_overhead_frac"] = metric{meanMs(lB.timed)/meanMs(lA.timed) - 1, "fraction"}
	m["bench.latency_p99_ms"] = metric{stats.Percentile(latenciesMs(lA.timed), 99), "ms"}

	notes := append(lA.notes, lB.notes...)
	notes = append(notes, verdictNotes(vA)...)
	notes = append(notes, verdictNotes(vB)...)
	stem := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if err := writeTrace(cfg.traceDir, stem, spans, rows, m); err != nil {
		return nil, notes, err
	}
	notes = append(notes, fmt.Sprintf("trace: %d spans, %d ledger rows written to %s/%s.*", len(spans), len(rows), cfg.traceDir, stem))
	// A layer that claims more time than the layer around it means the
	// ledger (or a layer's own clock) is wrong.
	for _, row := range rows {
		if len(row.Problems) > 0 {
			return nil, notes, fmt.Errorf("ledger: %d requests inconsistent; request %d: %s",
				int(m["bench.ledger_violations"].Value), row.Request, row.Problems[0])
		}
	}
	return &result{
		Correct:   vA.answersOK() && vB.answersOK(),
		Attempted: vA.attempted + vB.attempted,
		Failed:    vA.failed + vB.failed,
		Metrics:   m,
	}, notes, nil
}

// counters is a point-in-time read of every layer's own counters.
type counters struct {
	at                                          time.Time
	l1Hits, l1Misses, peer, dispatched, repairs uint64
	requests, hits, misses, coalesced, fused    uint64
	maskHits, maskMisses                        uint64
	pings, traceroutes, deduped                 uint64
	localizeTrains, refreshTrains               uint64
	laneHeldNs                                  int64
}

func (s *stack) counters(ctx context.Context) counters {
	rs := s.router.Stats(ctx).Router
	c := counters{at: time.Now(), l1Hits: rs.L1Hits, l1Misses: rs.L1Misses, peer: rs.PeerFetches,
		dispatched: rs.Dispatched, repairs: rs.EpochRepairs}
	for _, n := range s.nodes {
		es := n.srv.Engine().Stats()
		c.requests += es.Requests
		c.hits += es.CacheHits
		c.misses += es.CacheMisses
		c.coalesced += es.Coalesced
		c.fused += es.FusedTargets
		c.maskHits += es.LandMasks.Hits
		c.maskMisses += es.LandMasks.Misses
		if sched := n.srv.Manager().CurrentLocalizer().MeasureScheduler(); sched != nil {
			ms := sched.Stats()
			c.pings += ms.Pings
			c.traceroutes += ms.Traceroutes
			c.deduped += ms.Deduped
		}
		c.localizeTrains += n.prober.localizeTrains.Load()
		c.refreshTrains += n.prober.refreshTrains.Load()
		c.laneHeldNs += n.prober.laneHeldNs.Load()
	}
	return c
}

// perLayer derives the per-layer metrics of a traced load from the span
// tree, the answers' provenance and the layers' counters.
func perLayer(s *stack, l *load, c0, c1 counters, spans []span, kids map[uint64][]int, rows []ledgerRow, overheads []float64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return stats.Percentile(xs, p)
	}

	// core: one sample per computed answer. Cache replays carry the
	// provenance of the computation they replay, so each (key, epoch) is
	// counted once and engine-cache hits not at all.
	var solve, measure, constraints []float64
	self := map[string][]float64{}
	var dropped, applied float64
	seen := map[refKey]bool{}
	batches := 0
	for _, r := range l.timed {
		if r.err != nil {
			continue
		}
		if len(r.keys) > 1 {
			batches++
		}
		for i, res := range r.results {
			k := refKey{key: r.keys[i], epoch: res.Epoch}
			p := res.Provenance
			if res.Cached || p == nil || len(p.Sources) == 0 || seen[k] {
				continue
			}
			seen[k] = true
			solve = append(solve, p.SolveMs)
			measure = append(measure, p.MeasureMs)
			constraints = append(constraints, float64(p.TotalConstraints))
			for _, src := range p.Sources {
				self[src.Source] = append(self[src.Source], src.ElapsedMs-src.MeasureMs)
				if src.Source == "rdns" || src.Source == "geodb" {
					applied += float64(src.Constraints)
				}
			}
			dropped += float64(len(p.DroppedHints))
		}
	}
	set("core.solve_ms_p50", pct(solve, 50), "ms")
	set("core.solve_ms_p99", pct(solve, 99), "ms")
	for _, src := range sources {
		set("core.source."+src+"_self_ms_p50", pct(self[src], 50), "ms")
	}
	set("core.constraints_per_target", stats.Mean(constraints), "count/target")
	set("core.hints_dropped_frac", dropped/(dropped+applied), "fraction")
	set("core.measure_ms_p50", pct(measure, 50), "ms")

	// serve and cluster, from spans.
	var nodeMs, pushMs, activateMs []float64
	lookups, lookupHits := 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "serve /v2/localize", "serve /v2/localize/batch":
			if sp.Status == 200 {
				nodeMs = append(nodeMs, float64(sp.dur())/1e6)
			}
		case "serve /v1/cache/lookup":
			lookups++
			if sp.Status == 200 {
				lookupHits++
			}
		case "bench.rollout":
			var push, activate float64
			for _, k := range kids[sp.ID] {
				switch spans[k].Name {
				case "serve /v1/survey/snapshot", "serve /v1/survey/install":
					push += float64(spans[k].dur()) / 1e6
				case "serve /v1/survey/activate":
					activate += float64(spans[k].dur()) / 1e6
				}
			}
			pushMs, activateMs = append(pushMs, push), append(activateMs, activate)
		}
	}
	var frontSelf, unattributed []float64
	var sumUnattr, sumReq float64
	violations := 0
	for _, row := range rows {
		frontSelf = append(frontSelf, row.Parts["cluster.front"])
		unattributed = append(unattributed, row.Unattributed)
		sumUnattr += row.Unattributed
		sumReq += row.RequestMs
		if len(row.Problems) > 0 {
			violations++
		}
	}
	set("serve.node_ms_p50", pct(nodeMs, 50), "ms")
	set("serve.node_ms_p99", pct(nodeMs, 99), "ms")
	set("serve.overhead_ms_p50", pct(overheads, 50), "ms")
	set("cluster.front_self_ms_p50", pct(frontSelf, 50), "ms")
	set("cluster.l1_hit_ratio", ratio(c1.l1Hits-c0.l1Hits, c1.l1Hits-c0.l1Hits+c1.l1Misses-c0.l1Misses), "fraction")
	set("cluster.peer_fetch_hit_ratio", ratio(uint64(lookupHits), uint64(lookups)), "fraction")
	needNode := (c1.l1Misses - c0.l1Misses) - (c1.peer - c0.peer)
	set("cluster.dispatch_per_request", ratio(c1.dispatched-c0.dispatched, needNode), "count/target")
	set("cluster.epoch_repairs_per_batch", ratio(c1.repairs-c0.repairs, uint64(batches)), "count/batch")
	set("cluster.rollout_push_ms", pct(pushMs, 50), "ms")
	set("cluster.rollout_activate_ms", pct(activateMs, 50), "ms")

	// lifecycle, from the rollout reports.
	var refreshMs, pairs, rebuilt []float64
	for _, ro := range l.rollouts {
		if ro.rep.Refresh != nil {
			refreshMs = append(refreshMs, ro.rep.Refresh.ElapsedMs)
			pairs = append(pairs, float64(ro.rep.Refresh.ProbedPairs))
			rebuilt = append(rebuilt, float64(ro.rep.Refresh.RebuiltCalibs))
		}
	}
	set("lifecycle.refresh_ms", pct(refreshMs, 50), "ms")
	set("lifecycle.refresh_pairs", pct(pairs, 50), "count")
	set("lifecycle.rebuilt_calibs", pct(rebuilt, 50), "count")

	// batch and measure, from the engines' and schedulers' counters.
	misses := c1.misses - c0.misses
	computed := misses - (c1.coalesced - c0.coalesced)
	set("batch.cache_hit_ratio", ratio(c1.hits-c0.hits, c1.hits-c0.hits+misses), "fraction")
	set("batch.coalesced_frac", ratio(c1.coalesced-c0.coalesced, misses), "fraction")
	set("batch.fused_frac", ratio(c1.fused-c0.fused, c1.requests-c0.requests), "fraction")
	set("batch.land_mask_hit_ratio", ratio(c1.maskHits-c0.maskHits, c1.maskHits-c0.maskHits+c1.maskMisses-c0.maskMisses), "fraction")
	pings := c1.pings - c0.pings
	set("measure.trains_per_target", ratio(pings, computed), "count/target")
	set("measure.traceroutes_per_target", ratio(c1.traceroutes-c0.traceroutes, computed), "count/target")
	set("measure.deduped_frac", ratio(c1.deduped-c0.deduped, pings+c1.deduped-c0.deduped), "fraction")

	// probe, from the prober wrapper's spans and counters.
	var wait, sim []float64
	for _, sp := range spans {
		if sp.Name == "probe.ping" {
			wait = append(wait, float64(sp.WaitNs)/1e6)
			sim = append(sim, float64(sp.SimNs)/1e6)
		}
	}
	set("probe.lane_wait_ms_p50", pct(wait, 50), "ms")
	set("probe.lane_wait_ms_p99", pct(wait, 99), "ms")
	busy := 0.0
	if s.cfg.lanes > 0 {
		capacity := float64(s.cfg.lanes*len(s.nodes)) * float64(c1.at.Sub(c0.at))
		busy = float64(c1.laneHeldNs-c0.laneHeldNs) / capacity
	}
	set("probe.lane_busy_frac", busy, "fraction")
	set("probe.localize_trains", float64(c1.localizeTrains-c0.localizeTrains), "count")
	set("probe.refresh_trains", float64(c1.refreshTrains-c0.refreshTrains), "count")
	set("probe.sim_ms_p50", pct(sim, 50), "ms")

	// the benchmark itself.
	var late []float64
	for _, r := range l.timed {
		late = append(late, ms(r.sent.Sub(r.due)))
	}
	set("bench.requests", float64(len(l.timed)), "count")
	set("bench.gen_late_p99_ms", pct(late, 99), "ms")
	set("bench.unattributed_ms_p50", pct(unattributed, 50), "ms")
	set("bench.unattributed_frac", sumUnattr/sumReq, "fraction")
	set("bench.ledger_violations", float64(violations), "count")
	return m
}

// procSnap is a point-in-time read of the process's own counters.
type procSnap struct {
	at              time.Time
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	cpu             time.Duration
}

func procNow() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	p := procSnap{at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// processMetrics covers the untraced half of a traced run: the whole
// process (generator, front door and both nodes) per target served.
func processMetrics(a, b procSnap, targets int) map[string]metric {
	per := func(x uint64) float64 { return float64(x) / float64(max(targets, 1)) }
	gc := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gc = (b.gcCPU - a.gcCPU) / d
	}
	return map[string]metric{
		"process.allocs_per_target":   {per(b.mallocs - a.mallocs), "count/target"},
		"process.alloc_kb_per_target": {per(b.bytes-a.bytes) / 1024, "KiB/target"},
		"process.gc_cpu_frac":         {gc, "fraction"},
		"process.cpu_util":            {(b.cpu - a.cpu).Seconds() / b.at.Sub(a.at).Seconds() / float64(runtime.NumCPU()), "fraction"},
	}
}

func meanMs(reqs []*reqRec) float64 { return stats.Mean(latenciesMs(reqs)) }
