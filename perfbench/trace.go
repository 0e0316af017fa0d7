package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent and Root link it to the request (or
// rollout) that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   uint64 `json:"root,omitempty"`
	Name   string `json:"name"`
	// Node is the serving node the span ran on (-1: client or front door).
	Node   int   `json:"node"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	Status int   `json:"status,omitempty"`
	// WaitNs and SimNs split a probe span: time queued for a lane and
	// time inside the simulator.
	WaitNs  int64 `json:"wait_ns,omitempty"`
	SimNs   int64 `json:"sim_ns,omitempty"`
	Refresh bool  `json:"refresh,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run; they are written out
// once the run ends. Every method is a no-op on a nil tracer, which is
// how untraced runs pay (almost) nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) ns(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(tm.Sub(t.t0))
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far: those of a warm phase, whose
// requests have all ended.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// root starts a new request tree and returns a context carrying it.
func (t *tracer) root(ctx context.Context) (context.Context, uint64) {
	if t == nil {
		return ctx, 0
	}
	id := t.newID()
	return context.WithValue(ctx, spanKey{}, spanCtx{root: id, id: id}), id
}

// child records s under the span carried by ctx (an orphan if none).
func (t *tracer) child(ctx context.Context, s span) {
	if t == nil {
		return
	}
	if sc, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		s.Root, s.Parent = sc.root, sc.id
	}
	s.ID = t.newID()
	t.record(s)
}

// wrap times every request into h as a span named "<layer> <path>",
// joined to its caller through spanHeader, and hands the span to h's
// context so deeper calls (node requests, probes) nest under it.
func (t *tracer) wrap(h http.Handler, layer string, node int) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := parseSpanCtx(r.Header.Get(spanHeader))
		id := t.newID()
		root := parent.root
		if root == 0 {
			root = id
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanCtx{root: root, id: id})))
		t.record(span{ID: id, Parent: parent.id, Root: root, Name: layer + " " + r.URL.Path, Node: node,
			Start: t.ns(start), End: t.ns(time.Now()), Status: sw.status})
	})
}

// statusWriter remembers the response status and keeps streaming
// (http.Flusher) working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// snapshot returns the recorded spans and an index of their children.
func (t *tracer) snapshot() ([]span, map[uint64][]int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return spans, kids
}

// covered is how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, idx []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, parent.Start), min(spans[i].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// ledgerRow splits one request's wall time into layer self times. Parts
// holds milliseconds per layer; Unattributed is the time inside the
// engine that no measured stage covers (engine bookkeeping and core glue
// code, which have no clock of their own). Each part is its span less
// the time its children cover, so parts plus Unattributed sum to
// RequestMs by construction; what can be wrong is a child that claims
// more time than its parent, which Problems records.
type ledgerRow struct {
	Request      uint64             `json:"request"`
	RequestMs    float64            `json:"request_ms"`
	Parts        map[string]float64 `json:"parts"`
	Unattributed float64            `json:"unattributed_ms"`
	Problems     []string           `json:"problems,omitempty"`
}

// ledgerTolMs is the slack the ledger's consistency checks allow.
const ledgerTolMs = 1e-3

// buildLedger computes one ledger row per traced request. Single-target
// requests split the engine's time (elapsed_ms on the wire) into the
// core stages their provenance reports; a batch's node spans are leaves,
// because the fused engine keeps no per-target clock. It also returns
// the serving overhead of every request a node computed: node span minus
// core provenance for a single target, and for a batch the longest node
// span minus the longest engine time.
func buildLedger(spans []span, kids map[uint64][]int, reqs []*reqRec) ([]ledgerRow, []float64) {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	nsMs := func(ns int64) float64 { return float64(ns) / 1e6 }
	var rows []ledgerRow
	var overheads []float64
	for _, rq := range reqs {
		ri, ok := byID[rq.id]
		if !ok || rq.err != nil {
			continue
		}
		row := ledgerRow{Request: rq.id, RequestMs: nsMs(spans[ri].dur()), Parts: map[string]float64{}}
		row.Parts["bench.client"] = nsMs(spans[ri].dur() - covered(spans[ri], spans, kids[rq.id]))
		for _, fi := range kids[rq.id] {
			// The response came from the last successful localization
			// dispatch, if any (none: an L1 hit or a peer fetch).
			producer := -1
			var nodes []int
			var longestNode float64
			for _, ni := range kids[spans[fi].ID] {
				n := spans[ni]
				if !strings.HasPrefix(n.Name, "serve ") {
					continue
				}
				nodes = append(nodes, ni)
				if n.Status != http.StatusOK {
					continue
				}
				switch {
				case n.Name == "serve /v2/localize" && (producer < 0 || n.End > spans[producer].End):
					producer = ni
				case n.Name == "serve /v2/localize/batch":
					longestNode = max(longestNode, nsMs(n.dur()))
				}
			}
			// Node spans may run in parallel (a batch scatters to every
			// node), so the node layer is charged the time they cover
			// together, less the engine time of a single-target answer,
			// which the core stages and unattributed split instead.
			nodeNs := covered(spans[fi], spans, nodes)
			row.Parts["cluster.front"] += nsMs(spans[fi].dur() - nodeNs)
			nodeMs := nsMs(nodeNs)
			if producer < 0 || len(rq.results) != 1 {
				row.Parts["serve.node"] += nodeMs
				if longestNode > 0 {
					var longestEngine float64
					for _, res := range rq.results {
						longestEngine = max(longestEngine, res.ElapsedMs)
					}
					overheads = append(overheads, longestNode-longestEngine)
				}
				continue
			}
			// The engine runs inside the producing node's handler, and
			// the core stages inside the engine.
			res := rq.results[0]
			engine := res.ElapsedMs
			if nodeSpan := nsMs(spans[producer].dur()); engine > nodeSpan+ledgerTolMs {
				row.Problems = append(row.Problems, fmt.Sprintf("engine time %.4f ms exceeds its node span %.4f ms", engine, nodeSpan))
			}
			row.Parts["serve.node"] += nodeMs - engine
			core := 0.0
			if p := res.Provenance; p != nil && !res.Cached {
				for _, src := range p.Sources {
					row.Parts["core.source."+src.Source] += src.ElapsedMs - src.MeasureMs
					row.Parts["core.measure"] += src.MeasureMs
					core += src.ElapsedMs
				}
				row.Parts["core.solve"] += p.SolveMs
				core += p.SolveMs
				overheads = append(overheads, nsMs(spans[producer].dur())-core)
			}
			if core > engine+ledgerTolMs {
				row.Problems = append(row.Problems, fmt.Sprintf("core provenance %.4f ms exceeds engine time %.4f ms", core, engine))
			}
			row.Unattributed += engine - core
		}
		rows = append(rows, row)
	}
	return rows, overheads
}

// writeTrace writes the span file, the per-request ledger and the
// per-layer summary into dir.
func writeTrace(dir, stem string, spans []span, rows []ledgerRow, summary map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, stem+".spans.jsonl"), len(spans), func(i int) any { return spans[i] }); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, stem+".ledger.jsonl"), len(rows), func(i int) any { return rows[i] }); err != nil {
		return err
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".summary.json"), append(b, '\n'), 0o644)
}

func writeJSONL(path string, n int, item func(int) any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
