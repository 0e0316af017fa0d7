// Command perfbench is the repository's benchmark. It assembles the full
// in-process serving stack (front door → router → two serve nodes →
// engine → lifecycle → core → a paced or unpaced prober over netsim),
// drives one named workload from a seeded request stream, checks every
// answer against a direct Localizer call, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	perfbench --workload cold-unpaced --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once traced and prints the per-layer metrics, writing
// spans, the per-request ledger and a per-layer summary under --trace-dir.
// README.md lists every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"

	"octant/internal/serve"
	"octant/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 21

type runConfig struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	traceDir string
	// setups is how many times set-up runs (setupRuns outside tests).
	setups int
	// perturb alters every reference answer before the answer check
	// (tests only).
	perturb func(*serve.TargetResult)
}

func main() {
	var (
		cfg     runConfig
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: cold-unpaced, paced-zipf or bulk-rollout")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated request stream")
	flag.Float64Var(&seconds, "seconds", 25, "how long the load runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/perfbench/trace", "where a traced run writes its spans, ledger and summary")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	cfg.setups = setupRuns
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	res, notes, err := run(context.Background(), cfg)
	for _, n := range notes {
		fmt.Println("# " + n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %-40s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// run executes one benchmark invocation.
func run(ctx context.Context, cfg runConfig) (*result, []string, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want cold-unpaced, paced-zipf or bulk-rollout)", cfg.workload)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x0c7a17))
	if cfg.trace {
		return runTraced(ctx, w, cfg, rng)
	}

	s, setupS, setupNote, err := setUp(w, cfg.setups)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	l, err := drive(ctx, w, s, rng, cfg.dur, driveOpts{})
	if err != nil {
		return nil, nil, err
	}
	heapMB := liveHeapMB()
	v, err := s.verify(l.reqs, clientThreads(), cfg.perturb)
	if err != nil {
		return nil, nil, err
	}
	notes := append(l.notes, fmt.Sprintf("timed load: %d requests, %d targets in %.1f s, p99 %.2f ms", len(l.timed), targetsServed(l.timed),
		l.timedWall.Seconds(), stats.Percentile(latenciesMs(l.timed), 99)))
	notes = append(notes, setupNote)
	notes = append(notes, verdictNotes(v)...)
	return &result{
		Correct:   v.answersOK(),
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   endToEnd(l, v, setupS, heapMB),
	}, notes, nil
}

// setUp builds the stack n times and keeps the last one. It returns the
// median set-up time in seconds and a note with each stage's median.
func setUp(w workload, n int) (*stack, float64, string, error) {
	var total, world, survey, fleet, warmup []float64
	var s *stack
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		var st setupTimes
		var err error
		if s, st, err = newStack(w.cfg, nil); err != nil {
			return nil, 0, "", err
		}
		total = append(total, st.total().Seconds())
		world = append(world, ms(st.world))
		survey = append(survey, ms(st.survey))
		fleet = append(fleet, ms(st.fleet))
		warmup = append(warmup, ms(st.warmup))
	}
	note := fmt.Sprintf("set-up medians over %d: world %.1f ms, survey %.1f ms, fleet %.1f ms, warm-up %.1f ms",
		n, stats.Median(world), stats.Median(survey), stats.Median(fleet), stats.Median(warmup))
	return s, stats.Median(total), note, nil
}

// drive runs the workload's load, then (for workloads without rollouts
// of their own) a few idle rollouts.
func drive(ctx context.Context, w workload, s *stack, rng *rand.Rand, dur time.Duration, o driveOpts) (*load, error) {
	l, err := w.drive(ctx, s, rng, dur, o)
	if err != nil {
		return nil, err
	}
	if len(l.rollouts) == 0 {
		if l.rollouts, err = runIdleRollouts(ctx, s); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func verdictNotes(v verdict) []string {
	notes := []string{fmt.Sprintf("answer check: %d requests, %d failed, %d answers differ from the reference, %d mixed-epoch batches",
		v.attempted, v.failed, v.mismatches, v.mixedEpochs)}
	if v.firstProblem != "" {
		notes = append(notes, "first problem: "+v.firstProblem)
	}
	return notes
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(l *load, v verdict, setupS, heapMB float64) map[string]metric {
	lat := latenciesMs(l.timed)
	var walls []float64
	for _, r := range l.rollouts {
		walls = append(walls, r.wall.Seconds())
	}
	correct := 0.0
	if v.attempted > 0 {
		correct = float64(v.attempted-v.failed) / float64(v.attempted)
	}
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"latency_p50_ms":   {stats.Percentile(lat, 50), "ms"},
		"latency_p95_ms":   {p95OfBlocks(lat), "ms"},
		"throughput_tps":   {float64(targetsServed(l.timed)) / l.timedWall.Seconds(), "targets/s"},
		"slo_rate_rps":     {l.sloRate, "1/s"},
		"rollout_s":        {stats.Median(walls), "s"},
		"correct_frac":     {correct, "fraction"},
		"median_error_km":  {v.medianErrKm, "km"},
		"containment_frac": {v.containment, "fraction"},
		"live_heap_mb":     {heapMB, "MiB"},
	}
}

// p95OfBlocks is latency_p95_ms: the p95 of each consecutive block of at
// least 500 requests (so 25 samples lie beyond it), and the lower quartile
// of those across the blocks. On a shared machine, load from outside the
// benchmark comes in bursts of seconds to minutes and only adds latency:
// a block it overlaps reads high, often several in a row. The lower
// quartile keeps the run's figure until three blocks in four are hit,
// while a change to the program's own tail moves every block. Runs of
// fewer than 1000 requests are one block.
//
// The tail is the p95, not the p99: load from other tenants of a shared
// host slows whole runs, and on cold-unpaced it raised the p99 of a
// disturbed run up to threefold, so ten runs spread past any allowed
// bound. The p99 is still printed (in the note on the timed load, and as
// bench.latency_p99_ms in a traced run).
func p95OfBlocks(lat []float64) float64 {
	blocks := max(1, len(lat)/500)
	size := len(lat) / blocks
	var p95s []float64
	for b := 0; b < blocks; b++ {
		end := (b + 1) * size
		if b == blocks-1 {
			end = len(lat)
		}
		p95s = append(p95s, stats.Percentile(lat[b*size:end], 95))
	}
	return stats.Percentile(p95s, 25)
}

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// clientThreads is the generator's thread and connection budget.
func clientThreads() int { return runtime.NumCPU() }
