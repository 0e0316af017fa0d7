package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/serve"
	"octant/internal/stats"
)

// refKey names one reference answer: a key served at a survey epoch.
type refKey struct {
	key     key
	epoch   uint64
	explain bool
}

// reference is a direct Localizer.LocalizeContext answer, computed on the
// same epoch's survey with the nodes' configuration but none of the
// serving stack: no HTTP, engine, cache, router or pacing.
type reference struct {
	wire   serve.TargetResult
	errKm  float64
	inside bool
}

// verdict is the outcome of checking every served answer.
type verdict struct {
	attempted, failed int
	// mismatches counts answers that differ from their reference, and
	// mixedEpochs batches whose answers span more than one epoch.
	mismatches, mixedEpochs int
	firstProblem            string
	medianErrKm             float64
	containment             float64
}

// answersOK says whether every served answer matched its reference and
// every batch kept to one epoch. Request errors count as failed
// operations (and against correct_frac) but are not wrong answers.
func (v verdict) answersOK() bool { return v.mismatches == 0 && v.mixedEpochs == 0 }

// verify checks every answer of every request against its reference
// answer and scores accuracy. A request fails when it errored, when a
// batch mixes epochs, or when any answer's point, area, height or
// constraint count differs from the reference (the solution weight is
// not on the wire). perturb, when set, alters references before the
// comparison; tests use it to prove a wrong answer is caught.
//
// Accuracy scores every target at every epoch that served an answer, so
// it does not depend on which keys a seed drew: variants do not change a
// target's answer, and each epoch's answers are fixed by the calibration
// its refresh published.
func (s *stack) verify(reqs []*reqRec, workers int, perturb func(*serve.TargetResult)) (verdict, error) {
	var v verdict
	need := map[refKey]bool{}
	epochs := map[uint64]bool{}
	for _, r := range reqs {
		if r.err != nil {
			continue
		}
		for i, res := range r.results {
			need[refKey{key: r.keys[i], epoch: res.Epoch, explain: r.explain}] = true
			epochs[res.Epoch] = true
		}
	}
	var scored []refKey
	for e := range epochs {
		for _, t := range s.targets {
			k := refKey{key: key{target: t.Name}, epoch: e}
			need[k] = true
			scored = append(scored, k)
		}
	}
	refs, err := s.references(need, workers)
	if err != nil {
		return v, err
	}
	if perturb != nil {
		for k, ref := range refs {
			perturb(&ref.wire)
			refs[k] = ref
		}
	}
	note := func(format string, args ...any) {
		if v.firstProblem == "" {
			v.firstProblem = fmt.Sprintf(format, args...)
		}
	}
	// byKey enforces one answer per (key, epoch) across the whole run.
	byKey := map[refKey]serve.TargetResult{}
	for _, r := range reqs {
		v.attempted++
		if r.err != nil {
			v.failed++
			note("request failed: %v", r.err)
			continue
		}
		bad := false
		for i, res := range r.results {
			k := refKey{key: r.keys[i], epoch: res.Epoch, explain: r.explain}
			if res.Epoch != r.results[0].Epoch {
				v.mixedEpochs++
				bad = true
				note("batch mixes epochs %d and %d", r.results[0].Epoch, res.Epoch)
			}
			if !sameAnswer(res.TargetResult, refs[k].wire) {
				v.mismatches++
				bad = true
				note("%s variant %d epoch %d: served %s, reference %s", k.key.target, k.key.variant, k.epoch,
					describe(res.TargetResult), describe(refs[k].wire))
			}
			if prev, ok := byKey[k]; ok && !sameAnswer(prev, res.TargetResult) {
				v.mismatches++
				bad = true
				note("%s variant %d epoch %d answered two ways", k.key.target, k.key.variant, k.epoch)
			}
			byKey[k] = res.TargetResult
		}
		if bad {
			v.failed++
		}
	}
	v.medianErrKm, v.containment = accuracy(refs, scored)
	return v, nil
}

// references computes every needed reference answer with a few workers.
func (s *stack) references(need map[refKey]bool, workers int) (map[refKey]reference, error) {
	keys := make([]refKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	locs := map[uint64]*core.Localizer{}
	for _, k := range keys {
		if _, ok := locs[k.epoch]; ok {
			continue
		}
		survey, ok := s.epochSurvey(k.epoch)
		if !ok {
			return nil, fmt.Errorf("no survey recorded for epoch %d", k.epoch)
		}
		locs[k.epoch] = core.NewLocalizer(s.sim, survey, s.coreCfg)
	}
	truth := map[string]geo.Point{}
	for _, t := range s.targets {
		truth[t.Name] = t.Loc
	}
	out := make(map[refKey]reference, len(keys))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	jobs := make(chan refKey)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				ref, err := computeRef(locs[k.epoch], k, truth[k.key.target])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[k] = ref
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return out, firstErr
}

func computeRef(loc *core.Localizer, k refKey, truth geo.Point) (reference, error) {
	opts, err := variantOptions(k.key.variant, k.explain).Options()
	if err != nil {
		return reference{}, err
	}
	res, err := loc.LocalizeContext(context.Background(), k.key.target, opts...)
	if err != nil {
		return reference{}, fmt.Errorf("reference for %s: %w", k.key.target, err)
	}
	return reference{
		wire:   serve.ToTargetResult(batch.Item{Target: k.key.target, Result: res}),
		errKm:  res.Point.DistanceKm(truth),
		inside: res.ContainsTruth(truth),
	}, nil
}

// sameAnswer compares everything a served answer states about the
// solution.
func sameAnswer(a, b serve.TargetResult) bool {
	return a.Error == "" && b.Error == "" && sameFloat(a.Lat, b.Lat) && sameFloat(a.Lon, b.Lon) &&
		a.AreaKm2 == b.AreaKm2 && a.HeightMs == b.HeightMs && a.Constraints == b.Constraints &&
		a.EmptyRegion == b.EmptyRegion && a.Degraded == b.Degraded
}

func sameFloat(a, b *float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func describe(r serve.TargetResult) string {
	deref := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	return fmt.Sprintf("(%.6f, %.6f) %.1f km² h=%.4f n=%d", deref(r.Lat), deref(r.Lon), r.AreaKm2, r.HeightMs, r.Constraints)
}

// accuracy is the paper's Fig 3 and Fig 4 pair over the scored
// references: per epoch, the median error across targets and the share
// of targets whose region contains the truth; then the median and the
// mean of those across epochs.
func accuracy(refs map[refKey]reference, scored []refKey) (medianKm, containment float64) {
	errs := map[uint64][]float64{}
	inside := map[uint64][]float64{}
	for _, k := range scored {
		ref := refs[k]
		errs[k.epoch] = append(errs[k.epoch], ref.errKm)
		in := 0.0
		if ref.inside {
			in = 1
		}
		inside[k.epoch] = append(inside[k.epoch], in)
	}
	epochs := make([]uint64, 0, len(errs))
	for e := range errs {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	var perEpochErr, perEpochIn []float64
	for _, e := range epochs {
		perEpochErr = append(perEpochErr, stats.Median(errs[e]))
		perEpochIn = append(perEpochIn, stats.Mean(inside[e]))
	}
	return stats.Median(perEpochErr), stats.Mean(perEpochIn)
}
