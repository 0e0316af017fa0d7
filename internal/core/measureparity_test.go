package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// All probing goes through measure.Scheduler, and the scheduler must be
// invisible in results: for any world state — healthy or faulted — the
// measurements it returns must be bit-identical to a one-probe-at-a-time
// walk in loop order, including the order of named failures and the
// first error that aborts a survey. The walks below are that reference:
// test-only copies of the serialized loops the scheduler replaced.

// serialPingWalk is the LatencySource's landmark ping loop: one
// Ping+MinRTT per landmark in landmark order, a failure leaving a NaN
// slot and a named ProbeFailure, a context error aborting.
func serialPingWalk(p probe.Prober, s *Survey, target string, probes int) ([]float64, []ProbeFailure, error) {
	rtts := make([]float64, s.N())
	var failures []ProbeFailure
	for i, lm := range s.Landmarks {
		if lm.Addr == target {
			return nil, nil, fmt.Errorf("core: target %s is landmark %s; exclude it from the survey first", target, lm.Name)
		}
		samples, err := p.Ping(lm.Addr, target, probes)
		if err == nil {
			var min float64
			if min, err = probe.MinRTT(samples); err == nil {
				rtts[i] = min
				continue
			}
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, fmt.Errorf("core: ping %s→%s: %w", lm.Name, target, err)
		}
		rtts[i] = math.NaN()
		failures = append(failures, ProbeFailure{Landmark: lm.Name, Reason: err.Error()})
	}
	return rtts, failures, nil
}

// serialTracerouteWalk is routerConstraints' traceroute loop: the nTr
// lowest-RTT answering landmarks (NaN slots unranked) each trace the
// target in rank order. It returns the failures the RouterSource
// reports.
func serialTracerouteWalk(p probe.Prober, s *Survey, rtts []float64, target string, nTr int) []ProbeFailure {
	var order []int
	for i, r := range rtts {
		if !math.IsNaN(r) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return rtts[order[a]] < rtts[order[b]] })
	var failed []ProbeFailure
	for k := 0; k < nTr && k < len(order); k++ {
		lm := s.Landmarks[order[k]]
		if _, err := p.Traceroute(lm.Addr, target); err != nil {
			failed = append(failed, ProbeFailure{Landmark: lm.Name, Reason: "traceroute: " + err.Error()})
		}
	}
	return failed
}

// serialSurveyWalk is NewSurvey's pair loop: every pair (i < j) in
// iteration order, the first failing pair aborting the build.
func serialSurveyWalk(p probe.Prober, landmarks []Landmark, probes int) ([][]float64, error) {
	n := len(landmarks)
	rtt := make([][]float64, n)
	for i := range rtt {
		rtt[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			samples, err := p.Ping(landmarks[i].Addr, landmarks[j].Addr, probes)
			if err != nil {
				return nil, fmt.Errorf("core: survey ping %s→%s: %w",
					landmarks[i].Name, landmarks[j].Name, err)
			}
			min, err := probe.MinRTT(samples)
			if err != nil {
				return nil, err
			}
			rtt[i][j], rtt[j][i] = min, min
		}
	}
	return rtt, nil
}

// oneAtATime is the configuration that makes the scheduler issue one
// probe at a time in slot order — the paced benchmarks' baseline.
var oneAtATime = Config{MeasureWorkers: 1, MeasurePerLandmark: 1}

// sameRTTs compares RTT vectors slot by slot, NaN (failed) slots
// matching each other.
func sameRTTs(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: RTT vector lengths %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Errorf("%s: RTT slot %d: %v != %v", name, i, got[i], want[i])
		}
	}
}

// TestParallelSerialLocalizeParity: on a healthy world the scheduler's
// RTT vector equals the serial ping walk's, and the default fan-out and
// one-at-a-time configurations give bit-identical results.
func TestParallelSerialLocalizeParity(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 11})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []Landmark
	for _, h := range hosts[4:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewLocalizer(p, s, Config{})
	serial := NewLocalizer(p, s, oneAtATime)
	ctx := context.Background()

	for _, target := range hosts[:4] {
		pr, err := parallel.LocalizeContext(ctx, target.Name)
		if err != nil {
			t.Fatalf("parallel %s: %v", target.Name, err)
		}
		want, failures, err := serialPingWalk(p, s, target.Name, parallel.Cfg.Probes)
		if err != nil || len(failures) != 0 {
			t.Fatalf("serial walk %s: %v %v", target.Name, failures, err)
		}
		if !reflect.DeepEqual(pr.RTTs, want) {
			t.Errorf("%s: scheduler RTT vector differs from the serial walk", target.Name)
		}
		sr, err := serial.LocalizeContext(ctx, target.Name)
		if err != nil {
			t.Fatalf("one-at-a-time %s: %v", target.Name, err)
		}
		sameResult(t, target.Name, pr, sr)
	}
}

// traceFailer fails every traceroute issued from a landmark in from.
// The map is filled before any localization and only read after.
type traceFailer struct {
	probe.Prober
	from map[string]bool
}

func (f traceFailer) Traceroute(src, dst string) ([]probe.Hop, error) {
	if f.from[src] {
		return nil, probe.ErrUnreachable
	}
	return f.Prober.Traceroute(src, dst)
}

// TestParallelSerialDegradedParity: with landmark→target paths
// blackholed and some traceroutes failing, the scheduler path must name
// the exact failure sets of the serial walks, in the same (landmark,
// then rank) order, with the same reasons — the provenance contract
// degraded-mode consumers and runbooks key on — and the default fan-out
// and one-at-a-time configurations must agree bit for bit.
func TestParallelSerialDegradedParity(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 5})
	hosts := w.HostNodes()
	target := hosts[0]
	var lms []Landmark
	for _, h := range hosts[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	p := traceFailer{Prober: probe.NewSimProber(w), from: make(map[string]bool)}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	// Down a scattered, non-contiguous fifth of the landmark set so slot
	// order and failure order can disagree if the fan-out got it wrong.
	for i, h := range hosts[1:] {
		if i%5 == 2 {
			w.SetPairBlackhole(h.ID, target.ID, true)
		}
	}

	parallel := NewLocalizer(p, s, Config{})
	serial := NewLocalizer(p, s, oneAtATime)
	ctx := context.Background()

	rtts, failures, err := serialPingWalk(p, s, target.Name, parallel.Cfg.Probes)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the traceroutes of the two lowest-RTT answering landmarks —
	// ranks 0 and 1 of the three that trace — so a rank-order slip in
	// the traceroute fan-out changes the failure list.
	var ranked []int
	for i, r := range rtts {
		if !math.IsNaN(r) {
			ranked = append(ranked, i)
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return rtts[ranked[a]] < rtts[ranked[b]] })
	p.from[s.Landmarks[ranked[0]].Addr] = true
	p.from[s.Landmarks[ranked[1]].Addr] = true

	pr, err := parallel.LocalizeContext(ctx, target.Name, WithExplain())
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !pr.Degraded || pr.Provenance == nil {
		t.Fatalf("degraded = %v, provenance = %v; want a degraded result with provenance", pr.Degraded, pr.Provenance)
	}
	if len(failures) == 0 {
		t.Fatal("serial walk saw no failures; the fixture blackholes nothing")
	}
	if !reflect.DeepEqual(pr.Provenance.Failures, failures) {
		t.Errorf("failure lists diverge:\nscheduler:   %+v\nserial walk: %+v", pr.Provenance.Failures, failures)
	}
	sameRTTs(t, "scheduler vs serial walk", pr.RTTs, rtts)

	var routerFailures []ProbeFailure
	for _, rep := range pr.Provenance.Sources {
		if rep.Source == SourceRouter {
			routerFailures = rep.Failures
		}
	}
	wantTrace := serialTracerouteWalk(p, s, rtts, target.Name, parallel.Cfg.TracerouteLandmarks)
	if len(wantTrace) == 0 {
		t.Fatal("serial traceroute walk saw no failures; the fixture fails none")
	}
	if !reflect.DeepEqual(routerFailures, wantTrace) {
		t.Errorf("traceroute failures diverge:\nscheduler:   %+v\nserial walk: %+v", routerFailures, wantTrace)
	}

	sr, err := serial.LocalizeContext(ctx, target.Name, WithExplain())
	if err != nil {
		t.Fatalf("one-at-a-time: %v", err)
	}
	if !sr.Degraded || !reflect.DeepEqual(sr.Provenance.Failures, pr.Provenance.Failures) {
		t.Errorf("one-at-a-time degraded = %v, failures %+v; want %+v", sr.Degraded, sr.Provenance.Failures, pr.Provenance.Failures)
	}
	// sameResult's DeepEqual can't compare degraded RTT vectors — failed
	// slots hold NaN, and NaN != NaN — so compare them slot by slot,
	// then the rest of the result.
	sameRTTs(t, "default vs one-at-a-time", pr.RTTs, sr.RTTs)
	pr.RTTs, sr.RTTs = nil, nil
	sameResult(t, target.Name, pr, sr)
}

// TestSurveyWorkersParity: the O(k²) survey matrix the scheduler fans
// out equals the serial pair walk's, a failing mesh aborts with the
// serial walk's first failing pair, and localizing against the survey
// gives bit-identical results under the default fan-out and one probe
// at a time.
func TestSurveyWorkersParity(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 9})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	lmHosts := hosts[2:]
	var lms []Landmark
	for _, h := range lmHosts {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialSurveyWalk(p, lms, s.Probes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.RTT, want) {
		t.Error("scheduler survey RTT matrix differs from the serial pair walk")
	}

	ctx := context.Background()
	for _, target := range hosts[:2] {
		pr, err := NewLocalizer(p, s, Config{}).LocalizeContext(ctx, target.Name)
		if err != nil {
			t.Fatalf("parallel %s: %v", target.Name, err)
		}
		sr, err := NewLocalizer(p, s, oneAtATime).LocalizeContext(ctx, target.Name)
		if err != nil {
			t.Fatalf("one-at-a-time %s: %v", target.Name, err)
		}
		sameResult(t, target.Name, pr, sr)
	}

	// Blackhole every pair of the first landmark plus a scattered pair:
	// the first slots all fail at once, and only the lowest may be
	// reported.
	for _, h := range lmHosts[1:] {
		w.SetPairBlackhole(lmHosts[0].ID, h.ID, true)
	}
	w.SetPairBlackhole(lmHosts[1].ID, lmHosts[9].ID, true)
	_, wantErr := serialSurveyWalk(p, lms, s.Probes)
	if wantErr == nil {
		t.Fatal("serial walk survived the blackholed mesh")
	}
	for r := 0; r < 5; r++ {
		if _, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true}); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("survey error = %v, want the serial walk's %v", err, wantErr)
		}
	}
}

// slowProber stretches every ping so a cancellation lands mid-fan-out.
type slowProber struct {
	probe.Prober
	delay time.Duration
}

func (p slowProber) Ping(src, dst string, n int) ([]float64, error) {
	time.Sleep(p.delay)
	return p.Prober.Ping(src, dst, n)
}

// TestLocalizeCancelMidFanout: a context cancelled while the landmark
// fan-out is on the wire aborts the request with the context's error —
// promptly, not after the full landmark walk.
func TestLocalizeCancelMidFanout(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 3})
	raw := probe.NewSimProber(w)
	hosts := w.HostNodes()
	target := hosts[0]
	var lms []Landmark
	for _, h := range hosts[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(raw, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(slowProber{Prober: raw, delay: 20 * time.Millisecond}, s, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = loc.LocalizeContext(ctx, target.Name)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One at a time, the walk would take landmarks × 20 ms (≈ 1 s); the
	// abort must only drain the trains already in flight.
	if budget := 500 * time.Millisecond; elapsed > budget {
		t.Errorf("cancelled localization took %v, want < %v", elapsed, budget)
	}
}
