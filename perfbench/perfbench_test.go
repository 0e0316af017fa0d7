package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"octant/internal/core"
	"octant/internal/serve"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every metric BENCHMARK.json names, with its unit, and
// that every answer passes the answer check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack")
	}
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 7, dur: 1500 * time.Millisecond, trace: traced, traceDir: t.TempDir(), setups: 2}
			res, notes, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v\n%v", w.Name, traced, err, notes)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d\n%v", w.Name, traced, res.Correct, res.Attempted, res.Failed, notes)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestAnswerCheckCatchesWrongReference perturbs every reference answer by
// a hair and expects every request to fail the check.
func TestAnswerCheckCatchesWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack")
	}
	cfg := runConfig{workload: "cold-unpaced", seed: 3, dur: 500 * time.Millisecond, setups: 1,
		perturb: func(r *serve.TargetResult) {
			lat := *r.Lat + 1e-9
			r.Lat = &lat
		}}
	res, _, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("perturbed references: correct=%v attempted=%d failed=%d, want every request failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100},  // parent
		{Start: 10, End: 30},  // overlaps the next
		{Start: 20, End: 40},  //
		{Start: 90, End: 150}, // clipped to the parent
		{Start: 200, End: 300},
	}
	if got := covered(spans[0], spans, []int{1, 2, 3, 4}); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

// TestLedgerFlagsInconsistentClocks builds one traced request by hand —
// client 10 ms ⊃ front door 8 ms ⊃ node 6 ms — and checks that the
// ledger splits it exactly when the clocks nest, and records a problem
// when the engine or the core claims more time than the layer around it.
func TestLedgerFlagsInconsistentClocks(t *testing.T) {
	const msNs = int64(1e6)
	spans := []span{
		{ID: 1, Root: 1, Name: "bench.request", Start: 0, End: 10 * msNs},
		{ID: 2, Parent: 1, Root: 1, Name: "cluster /v2/localize", Start: msNs, End: 9 * msNs},
		{ID: 3, Parent: 2, Root: 1, Name: "serve /v2/localize", Status: 200, Start: 2 * msNs, End: 8 * msNs},
	}
	kids := map[uint64][]int{1: {1}, 2: {2}}
	answer := func(engineMs, solveMs float64) []*reqRec {
		res := serve.TargetResultV2{Provenance: &core.Provenance{
			Sources: []core.SourceReport{{Source: "latency", ElapsedMs: 1, MeasureMs: 0.5}},
			SolveMs: solveMs,
		}}
		res.ElapsedMs = engineMs
		return []*reqRec{{id: 1, keys: []key{{target: "t"}}, results: []serve.TargetResultV2{res}}}
	}
	for _, tc := range []struct {
		name             string
		engineMs, solve  float64
		wantProblems     int
		wantUnattributed float64
	}{
		{"consistent", 5, 3, 0, 1},
		{"engine longer than its node span", 7, 3, 1, 3},
		{"provenance longer than the engine", 3, 3, 1, -1},
	} {
		rows, _ := buildLedger(spans, kids, answer(tc.engineMs, tc.solve))
		if len(rows) != 1 {
			t.Fatalf("%s: %d ledger rows, want 1", tc.name, len(rows))
		}
		row := rows[0]
		if len(row.Problems) != tc.wantProblems {
			t.Errorf("%s: problems %q, want %d", tc.name, row.Problems, tc.wantProblems)
		}
		if d := row.Unattributed - tc.wantUnattributed; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: unattributed %.6f ms, want %.6f", tc.name, row.Unattributed, tc.wantUnattributed)
		}
		sum := row.Unattributed
		for _, v := range row.Parts {
			sum += v
		}
		if d := sum - row.RequestMs; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: parts sum to %.6f ms, request span is %.6f", tc.name, sum, row.RequestMs)
		}
	}
}
