package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/serve"
)

// key is one (target, options-variant) localization. Variants scale the
// weights of the geography source, which contributes a mask but no
// weighted constraints, so each variant has its own options fingerprint —
// a distinct cache and ring key — while the work and the answer per
// target stay the same. That keeps per-key cost and accuracy independent
// of which variants a seed happens to draw.
type key struct {
	target  string
	variant int
}

func variantOptions(v int, explain bool) *serve.WireOptions {
	return &serve.WireOptions{Weights: map[string]float64{"geography": 1 + 1e-3*float64(v+1)}, Explain: explain}
}

// reqRec is one generator request: a single target or a batch under one
// options variant.
type reqRec struct {
	id      uint64 // root span id (0 when untraced)
	keys    []key
	explain bool
	due     time.Time // open loop: when it was scheduled
	sent    time.Time
	done    time.Time
	results []serve.TargetResultV2
	err     error
}

// latency is measured from when the request was due, so a stalled
// generator's queue counts against the system (closed loops send when
// due).
func (r *reqRec) latency() time.Duration { return r.done.Sub(r.due) }

// send issues r through the front door and decodes the answer.
func (s *stack) send(ctx context.Context, r *reqRec, explain bool) {
	ctx, r.id = s.tr.root(ctx)
	r.explain = explain
	r.sent = time.Now()
	if r.due.IsZero() {
		r.due = r.sent
	}
	opts := variantOptions(r.keys[0].variant, explain)
	if len(r.keys) == 1 {
		var out serve.TargetResultV2
		r.err = s.post(ctx, "/v2/localize", map[string]any{"target": r.keys[0].target, "options": opts}, &out)
		r.results = []serve.TargetResultV2{out}
	} else {
		targets := make([]string, len(r.keys))
		for i, k := range r.keys {
			targets[i] = k.target
		}
		r.err = s.post(ctx, "/v2/localize/batch", map[string]any{"targets": targets, "options": opts}, &r.results)
	}
	r.done = time.Now()
	if r.err == nil {
		r.err = checkShape(r)
	}
	s.tr.record(span{ID: r.id, Root: r.id, Name: "bench.request", Node: -1, Start: s.tr.ns(r.sent), End: s.tr.ns(r.done)})
}

// checkShape rejects answers that are errors or do not line up with the
// keys asked for.
func checkShape(r *reqRec) error {
	if len(r.results) != len(r.keys) {
		return fmt.Errorf("asked for %d targets, got %d answers", len(r.keys), len(r.results))
	}
	for i, res := range r.results {
		if res.Error != "" {
			return fmt.Errorf("%s: %s", r.keys[i].target, res.Error)
		}
		if res.Target != r.keys[i].target {
			return fmt.Errorf("answer %d is for %s, asked for %s", i, res.Target, r.keys[i].target)
		}
	}
	return nil
}

// post sends one JSON request to the front door. out is a
// *serve.TargetResultV2 for single answers or a *[]serve.TargetResultV2
// for an NDJSON batch stream.
func (s *stack) post(ctx context.Context, path string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.front+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		req.Header.Set(spanHeader, sc.String())
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if lines, ok := out.(*[]serve.TargetResultV2); ok {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<22)
		for sc.Scan() {
			var tr serve.TargetResultV2
			if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
				return fmt.Errorf("%s: bad batch line: %w", path, err)
			}
			*lines = append(*lines, tr)
		}
		return sc.Err()
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// closedLoop sends requests from `workers` client threads, each sending
// its next request as soon as the last is answered, until the deadline.
// next is called in turn (never concurrently) and the requests are
// returned in that order.
func (s *stack) closedLoop(ctx context.Context, dur time.Duration, workers int, explain bool, next func(i int) []key) []*reqRec {
	var (
		mu  sync.Mutex
		out []*reqRec
		wg  sync.WaitGroup
	)
	end := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				mu.Lock()
				r := &reqRec{keys: next(len(out))}
				out = append(out, r)
				mu.Unlock()
				s.send(ctx, r, explain)
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends every planned request at its due time (offsets from the
// start) from at most `workers` client threads. A request whose due time
// passes while every thread is busy goes out late; its latency still
// counts from the due time.
func (s *stack) openLoop(ctx context.Context, plan []planned, workers int, explain bool) []*reqRec {
	out := make([]*reqRec, len(plan))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) || ctx.Err() != nil {
					return
				}
				r := &reqRec{keys: []key{plan[i].key}, due: start.Add(plan[i].at)}
				if d := time.Until(r.due); d > 0 {
					time.Sleep(d)
				}
				s.send(ctx, r, explain)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// planned is one open-loop arrival.
type planned struct {
	at  time.Duration
	key key
}
