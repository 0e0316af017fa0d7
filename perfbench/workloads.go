package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"octant/internal/cluster"
	"octant/internal/stats"
)

// Load shape. Paced workloads follow the cluster harness's 4 ms wire time
// per ping train, with 8 lanes per node: with 4, one miss's 34-train
// fan-out often queued behind another's, and paced-zipf's p99 and
// bulk-rollout's batch tail moved by a fifth between seeds.
const (
	pace  = 4 * time.Millisecond
	lanes = 8

	// paced-zipf: Zipf(1) popularity over zipfVariants × holdout keys.
	// The front-door L1 and each node's engine LRU hold far fewer keys
	// than that, so the popular head is served from the cache tiers while
	// the long tail keeps missing into measurement at a steady rate. A
	// short untimed warm phase fills the caches. Latency is reported over
	// open-loop Poisson arrivals at zipfRate, which get refShare of the
	// run; the rest is a closed-loop saturation phase from every client
	// thread that gives slo_rate_rps.
	zipfVariants = 16
	zipfL1       = 128
	zipfNodeLRU  = 128
	zipfRate     = 100
	zipfWarm     = 3 * time.Second
	refShare     = 0.6
	// sloLimit is the latency within which an answer counts toward
	// slo_rate_rps.
	sloLimit = 150 * time.Millisecond

	// cold-unpaced: the timed load starts once every node's engine LRU is
	// full, checked every coldWarmStep, and after at most coldWarmMax.
	coldWarmStep = 250 * time.Millisecond
	coldWarmMax  = 40 * time.Second

	// bulk-rollout: batches of bulkBatch distinct keys, and a coordinated
	// rollout every rolloutPeriod.
	bulkBatch     = 4
	rolloutPeriod = 2 * time.Second

	// Idle rollouts follow the load on the workloads whose load has none:
	// at least idleRollouts of them, and as many more as fit in
	// idleRolloutTime, so rollout_s is a median of many when a rollout is
	// cheap.
	idleRollouts    = 5
	idleRolloutTime = 1500 * time.Millisecond
)

// driveOpts says how a drive runs. The two halves of a traced run differ
// only in explain, so the latencies they compare come from the same load.
type driveOpts struct {
	explain bool // every request asks for provenance (the traced half)
	refOnly bool // paced-zipf drives only its reference rate, no saturation
	// onTimed, when set, runs once between a workload's warm phase and
	// its timed load, so a traced run's counters and spans cover only
	// the timed load.
	onTimed func()
}

func (o driveOpts) beginTimed() {
	if o.onTimed != nil {
		o.onTimed()
	}
}

// workload is one traffic mix over its own fleet.
type workload struct {
	cfg stackConfig
	// drive runs the measured load for dur.
	drive func(ctx context.Context, s *stack, rng *rand.Rand, dur time.Duration, o driveOpts) (*load, error)
}

// load is what one drive produced.
type load struct {
	reqs []*reqRec // every request sent
	// timed are the requests latency and throughput are reported over,
	// and timedWall the wall time they took.
	timed     []*reqRec
	timedWall time.Duration
	// sloRate is the rate of answers within sloLimit when the client
	// threads send as fast as they are answered.
	sloRate  float64
	rollouts []rollout
	notes    []string
}

type rollout struct {
	rep  *cluster.RolloutReport
	wall time.Duration
}

var workloads = map[string]workload{
	"cold-unpaced": {
		cfg:   stackConfig{hints: true},
		drive: driveCold,
	},
	"paced-zipf": {
		cfg:   stackConfig{pace: pace, lanes: lanes, l1: zipfL1, nodeCache: zipfNodeLRU},
		drive: driveZipf,
	},
	"bulk-rollout": {
		// Rollouts under load need the router to see a draining node
		// quickly, as in the cluster soak harness: at the default 500 ms
		// readiness TTL about one batch in 250 fails with "fleet would not
		// converge on one epoch".
		cfg:   stackConfig{pace: pace, lanes: lanes, readyTTL: 15 * time.Millisecond},
		drive: driveBulk,
	},
}

// driveCold is cold-unpaced: one closed-loop client, every key distinct
// (round r visits every target once, in a seeded order, under variant r).
// An untimed warm phase first sends keys of the same stream from every
// client thread until every node's engine LRU is full. From then on each
// answer evicts a dead one, so the timed load runs on the heap the
// program holds in service rather than on one still growing.
func driveCold(ctx context.Context, s *stack, rng *rand.Rand, dur time.Duration, o driveOpts) (*load, error) {
	n := len(s.targets)
	var order []int
	sent := 0
	next := func(int) []key {
		if sent%n == 0 {
			order = rng.Perm(n)
		}
		k := key{target: s.targets[order[sent%n]].Name, variant: sent / n}
		sent++
		return []key{k}
	}
	var warm []*reqRec
	warmStart := time.Now()
	for !s.enginesFull() && time.Since(warmStart) < coldWarmMax && ctx.Err() == nil {
		warm = append(warm, s.closedLoop(ctx, coldWarmStep, clientThreads(), o.explain, next)...)
	}
	o.beginTimed()
	start := time.Now()
	timed := s.closedLoop(ctx, dur, 1, o.explain, next)
	l := &load{reqs: append(warm, timed...), timed: timed, timedWall: time.Since(start)}
	l.sloRate = goodput(timed, l.timedWall)
	l.notes = append(l.notes, fmt.Sprintf("warm phase: %d requests in %.1f s, engine LRUs full: %v",
		len(warm), start.Sub(warmStart).Seconds(), s.enginesFull()))
	return l, nil
}

// zipfKeys draws keys with Zipf(1) popularity over the key space. Which
// key holds which popularity rank is fixed, like the world: the seed
// shapes the draws, not which keys (and so which nodes) are popular.
type zipfKeys struct {
	cdf     []float64
	perm    []int
	targets int
}

func newZipfKeys(targets, variants int) *zipfKeys {
	n := targets * variants
	ranks := rand.New(rand.NewPCG(worldSeed, 0x21bf))
	z := &zipfKeys{cdf: make([]float64, n), perm: ranks.Perm(n), targets: targets}
	total := 0.0
	for k := range z.cdf {
		total += 1 / float64(k+1)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipfKeys) draw(rng *rand.Rand, s *stack) key {
	rank := sort.SearchFloat64s(z.cdf, rng.Float64())
	if rank >= len(z.cdf) {
		rank = len(z.cdf) - 1
	}
	k := z.perm[rank]
	return key{target: s.targets[k%z.targets].Name, variant: k / z.targets}
}

// poissonPlan schedules rate×dur seeded arrivals over dur: a Poisson
// process conditioned on its count, so every seed offers the same load.
func poissonPlan(rng *rand.Rand, z *zipfKeys, s *stack, rate float64, dur time.Duration) []planned {
	plan := make([]planned, int(rate*dur.Seconds()))
	for i := range plan {
		plan[i] = planned{at: time.Duration(rng.Float64() * float64(dur)), key: z.draw(rng, s)}
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
	return plan
}

// driveZipf is paced-zipf: open-loop Poisson arrivals at zipfRate from
// nproc client threads, then (unless refOnly, as in a traced run) the
// same key stream closed-loop from those threads. The saturation phase
// finds the knee: how many answers per second the fleet gives within
// sloLimit when the generator never waits for a due time.
func driveZipf(ctx context.Context, s *stack, rng *rand.Rand, dur time.Duration, o driveOpts) (*load, error) {
	z := newZipfKeys(len(s.targets), zipfVariants)
	workers := clientThreads()
	refDur := time.Duration(float64(dur) * refShare)
	if o.refOnly {
		refDur = dur
	}
	l := &load{reqs: compact(s.openLoop(ctx, poissonPlan(rng, z, s, zipfRate, zipfWarm), workers, o.explain))}
	o.beginTimed()
	start := time.Now()
	l.timed = compact(s.openLoop(ctx, poissonPlan(rng, z, s, zipfRate, refDur), workers, o.explain))
	l.timedWall = time.Since(start)
	l.reqs = append(l.reqs, l.timed...)
	late := 0.0
	for _, r := range l.timed {
		late = max(late, ms(r.sent.Sub(r.due)))
	}
	l.notes = append(l.notes, fmt.Sprintf("%d/s open loop: %d requests, p99 %.1f ms, generator at most %.1f ms late",
		zipfRate, len(l.timed), stats.Percentile(latenciesMs(l.timed), 99), late))
	if o.refOnly {
		return l, nil
	}
	start = time.Now()
	sat := s.closedLoop(ctx, dur-refDur, workers, o.explain, func(int) []key { return []key{z.draw(rng, s)} })
	wall := time.Since(start)
	l.reqs = append(l.reqs, sat...)
	l.sloRate = goodput(sat, wall)
	l.notes = append(l.notes, fmt.Sprintf("saturation from %d threads: %d requests in %.1f s, p99 %.1f ms, %.0f/s within %v",
		workers, len(sat), wall.Seconds(), stats.Percentile(latenciesMs(sat), 99), l.sloRate, sloLimit))
	return l, nil
}

// driveBulk is bulk-rollout: one client thread streams batches of
// distinct keys (batch i asks for a seeded bulkBatch-target subset under
// variant i) while a second runs a drift-injecting coordinated rollout
// every rolloutPeriod.
func driveBulk(ctx context.Context, s *stack, rng *rand.Rand, dur time.Duration, o driveOpts) (*load, error) {
	n := len(s.targets)
	l := &load{}
	var (
		wg      sync.WaitGroup
		rollErr error
	)
	o.beginTimed()
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rolloutPeriod)
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			rep, wall, err := s.driftRollout(ctx, k)
			if err != nil {
				rollErr = err
				return
			}
			l.rollouts = append(l.rollouts, rollout{rep: rep, wall: wall})
		}
	}()
	start := time.Now()
	l.reqs = s.closedLoop(ctx, dur, 1, o.explain, func(i int) []key {
		order := rng.Perm(n)
		keys := make([]key, bulkBatch)
		for j := range keys {
			keys[j] = key{target: s.targets[order[j]].Name, variant: i}
		}
		return keys
	})
	l.timed, l.timedWall = l.reqs, time.Since(start)
	close(stop)
	wg.Wait()
	if rollErr != nil {
		return nil, rollErr
	}
	l.sloRate = goodput(l.reqs, l.timedWall)
	return l, nil
}

// runIdleRollouts runs rollouts on a fleet with no load (the workloads
// whose traffic has none), so rollout_s and the rollout layers are
// measured on every workload.
func runIdleRollouts(ctx context.Context, s *stack) ([]rollout, error) {
	var out []rollout
	end := time.Now().Add(idleRolloutTime)
	for k := 0; k < idleRollouts || time.Now().Before(end); k++ {
		rep, wall, err := s.driftRollout(ctx, k)
		if err != nil {
			return nil, err
		}
		out = append(out, rollout{rep: rep, wall: wall})
	}
	return out, nil
}

// goodput is the rate of requests that succeeded within sloLimit.
func goodput(reqs []*reqRec, wall time.Duration) float64 {
	ok := 0
	for _, r := range reqs {
		if r.err == nil && r.latency() <= sloLimit {
			ok++
		}
	}
	return float64(ok) / wall.Seconds()
}

func compact(reqs []*reqRec) []*reqRec {
	out := reqs[:0]
	for _, r := range reqs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

func latenciesMs(reqs []*reqRec) []float64 {
	out := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		if r.err == nil {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

func targetsServed(reqs []*reqRec) int {
	n := 0
	for _, r := range reqs {
		if r.err == nil {
			n += len(r.keys)
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
