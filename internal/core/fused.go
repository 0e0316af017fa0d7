package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"octant/internal/probe"
)

// Fused multi-target solve. A Localizer pins one survey epoch, so a batch
// through this file is exactly one fused group in the engine's
// (survey epoch, options fingerprint) grouping: the batch engine borrows
// one epoch per run and resolves one options set per run, then routes the
// whole run here.
//
// What the group shares, computed or rasterized once instead of per
// target:
//
//   - the resolved Config (defaults filled, per-request overrides
//     applied) and the resolved LocalizeOptions;
//   - the context-bound prober (one probe.WithContext wrapper per batch
//     instead of one per target);
//   - the projection context — survey-centroid frame, per-landmark
//     tangent frames, land outlines projected into the plane;
//   - the §2.5 land-mask master lattices: solver grids draw their cell
//     sizes from the quantized {FineCellKm · 2^k} set, and LandMaskCache
//     keys masters by (geometry, cell size) with a once-guarded build, so
//     the first target to solve at a given cell size rasterizes the
//     shared geography and every later target samples the same master.
//     Per-target weight grids themselves come from sync.Pool'd buffers
//     (geo.NewGrid), so steady-state solves reuse rather than reallocate
//     the 1M-cell lattices.
//
// What stays per target — measurements, constraint deltas, the two-pass
// weighted solve — runs on a bounded worker pool, with each worker
// sweeping its targets' disk constraints through one constraintArena so
// the per-disk allocation cost amortizes across the batch.
//
// Per-target results are bit-identical to sequential LocalizeContext
// calls under the same options: both paths assemble a Request and run the
// same localizeRequest body; the differential parity harness in
// fused_test.go enforces this.

// defaultFusedWorkers is the fused batch's worker-pool width when the
// caller passes no explicit count. Measurement latency dominates bulk
// localization and overlaps across targets, so the default intentionally
// exceeds typical core counts.
const defaultFusedWorkers = 8

// LocalizeBatchWith estimates the position of every target with one
// fused batch solve on workers goroutines (≤ 0 means the default). o
// applies to every target (one options fingerprint — one group; nil
// means defaults): callers dispatching many batches under one tuning
// (the batch engine) resolve and fingerprint the options once and reuse
// them, as with LocalizeWith. The returned slices are parallel to
// targets: results[i] is nil exactly when errs[i] is non-nil. Cancelling
// ctx aborts in-flight targets at their next measurement and reports
// queued ones with ctx's error.
//
// Each result is bit-identical to what a sequential LocalizeWith(ctx,
// targets[i], o) call would return; batching changes throughput and
// allocation behaviour, never answers. Duplicate targets are each
// measured (use the batch engine for caching and coalescing).
func (l *Localizer) LocalizeBatchWith(ctx context.Context, targets []string, workers int, o *LocalizeOptions) ([]*Result, []error) {
	results := make([]*Result, len(targets))
	errs := make([]error, len(targets))
	l.localizeBatch(ctx, targets, workers, 0, o, func(i int, res *Result, err error) {
		results[i], errs[i] = res, err
	})
	return results, errs
}

// LocalizeBatchDeadline is the streaming form of LocalizeBatchWith with
// a per-target deadline. emit is invoked once per target, from worker
// goroutines as each target completes (so emit must be safe for
// concurrent use), and the call returns after the last emit. Streaming
// front ends (the batch engine's Run) use this to deliver fused results
// in completion order instead of waiting for the slowest target in the
// group. Each target's localization (measurement included) runs under
// its own timeout context starting when a worker picks it up, so queued
// targets get a full budget — the same contract as the batch engine's
// TargetTimeout on the per-target path. A zero timeout means no limit.
func (l *Localizer) LocalizeBatchDeadline(ctx context.Context, targets []string, workers int, timeout time.Duration, o *LocalizeOptions, emit func(i int, res *Result, err error)) {
	l.localizeBatch(ctx, targets, workers, timeout, o, emit)
}

func (l *Localizer) localizeBatch(ctx context.Context, targets []string, workers int, timeout time.Duration, o *LocalizeOptions, emit func(i int, res *Result, err error)) {
	if len(targets) == 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := l.Survey
	if s == nil || s.N() < 3 {
		err := fmt.Errorf("core: localizer needs a survey with ≥ 3 landmarks")
		for i := range targets {
			emit(i, nil, err)
		}
		return
	}

	// Group-shared state, resolved once (see the file comment for the
	// full inventory). Everything here matches what LocalizeWith would
	// compute per target from the same inputs.
	cfg := l.Cfg
	cfg.fillDefaults()
	if o != nil && o.NegHeightPercentile > 0 {
		cfg.NegHeightPercentile = o.NegHeightPercentile
	}
	pctx := l.projContext()
	// Without per-target deadlines the whole group shares one
	// context-bound prober; with them, each target binds its own deadline
	// context when a worker picks it up (matching the per-target path's
	// TargetTimeout semantics exactly).
	prober := l.Prober
	if timeout <= 0 && ctx.Done() != nil {
		prober = probe.WithContext(ctx, l.Prober)
	}

	if workers <= 0 {
		workers = defaultFusedWorkers
	}
	if workers > len(targets) {
		workers = len(targets)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker for the whole batch: constraint
			// memory is retained by the Results, so the arena only ever
			// grows, amortizing disk allocations across the worker's
			// share of the targets.
			arena := &constraintArena{}
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					emit(i, nil, err)
					continue
				}
				tctx, tprober := ctx, prober
				var cancel context.CancelFunc
				if timeout > 0 {
					tctx, cancel = context.WithTimeout(ctx, timeout)
					tprober = probe.WithContext(tctx, l.Prober)
				}
				req := &Request{
					Target:   targets[i],
					Cfg:      cfg,
					Survey:   s,
					PCtx:     pctx,
					Prober:   tprober,
					Resolver: l.Resolver,
					Hints:    l.Hints,
					arena:    arena,
					// Workers share the Localizer's scheduler, so a
					// batch's probe traffic is landmark-major in effect:
					// concurrent targets queue on the same per-landmark
					// buckets (and share cache/dedup) instead of each
					// fanning out blind.
					sched: l.sched,
				}
				if o != nil {
					req.Opts = *o
				}
				res, err := l.localizeRequest(tctx, req)
				if cancel != nil {
					cancel()
				}
				emit(i, res, err)
			}
		}()
	}
	for i := range targets {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
