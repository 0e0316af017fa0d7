package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/batch"
	"octant/internal/cluster"
	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/geodb"
	"octant/internal/lifecycle"
	"octant/internal/netsim"
	"octant/internal/probe"
	"octant/internal/serve"
)

// The world is fixed: --seed shapes only the request stream, so accuracy
// and per-key costs are comparable across seeds and commits.
const (
	worldSeed  = 1
	fleetNodes = 2
	// holdout hosts stay out of the survey as localizable targets. An odd
	// count puts the across-target median inside one target's errors.
	holdout = 17
	probes  = 10
)

// stackConfig is what differs between the workloads' fleets.
type stackConfig struct {
	// hints gives the world rDNS hint names and every node a synthetic
	// geo-DB with wrong and stale records, as in octant-eval -hints.
	hints bool
	// pace is the wire time one ping train holds a probe lane (0 =
	// unpaced: the simulator answers instantly).
	pace  time.Duration
	lanes int
	// l1 and nodeCache size the front-door L1 and each engine LRU
	// (0 = the program's defaults).
	l1, nodeCache int
	// readyTTL is how long the router trusts a node's readiness
	// (0 = the program's default, 500 ms).
	readyTTL time.Duration
}

// stack is the full in-process serving stack, assembled from public
// constructors the way cluster.StartLocalFleet does, but with every layer
// boundary reachable by the benchmark's own wrappers: the generator's
// client → front-door handler → router → node handlers → engine →
// lifecycle → core → laneProber → netsim.
type stack struct {
	cfg       stackConfig
	world     *netsim.World
	sim       *probe.SimProber
	landmarks []core.Landmark
	targets   []*netsim.Node
	survey0   *core.Survey
	coreCfg   core.Config

	nodes   []*node
	clients []*cluster.NodeClient
	router  *cluster.Router
	coord   *cluster.Coordinator
	frontLn net.Listener
	frontHS *http.Server
	front   string // front door base URL

	// client is the load generator's HTTP client: at most nproc
	// connections to the front door.
	client *http.Client
	// internal carries router and coordinator traffic to the nodes.
	internal *http.Transport

	tr *tracer // nil when untraced

	mu     sync.Mutex
	epochs map[uint64]*core.Survey // node-0 survey per published epoch
}

type node struct {
	name   string
	srv    *serve.Server
	hs     *http.Server
	prober *laneProber
}

// setupTimes splits one set-up's wall time into its stages.
type setupTimes struct {
	world, survey, fleet, warmup time.Duration
}

func (t setupTimes) total() time.Duration { return t.world + t.survey + t.fleet + t.warmup }

// newStack builds world, survey, fleet and front door, then warms every
// node. tr, when set, records spans at every boundary.
func newStack(cfg stackConfig, tr *tracer) (*stack, setupTimes, error) {
	var st setupTimes
	s := &stack{cfg: cfg, tr: tr, epochs: make(map[uint64]*core.Survey)}

	t0 := time.Now()
	wcfg := netsim.Config{Seed: worldSeed}
	if cfg.hints {
		wcfg.HostRDNSHintFrac, wcfg.HostRDNSWrongFrac = 0.85, 0.2
	}
	s.world = netsim.NewWorld(wcfg)
	s.sim = probe.NewSimProber(s.world)
	hosts := s.world.HostNodes()
	s.targets = hosts[:holdout]
	for _, h := range hosts[holdout:] {
		s.landmarks = append(s.landmarks, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s.coreCfg = core.Config{Probes: probes}
	if cfg.hints {
		s.coreCfg.GeoDB = geodb.NewSynth(s.world, geodb.SynthOpts{Seed: worldSeed, WrongFrac: 0.1, StaleFrac: 0.2})
	}
	st.world = time.Since(t0)

	// One unpaced survey for the whole fleet; replicas adopt it through
	// the snapshot codec, as a pushed epoch would be adopted.
	t0 = time.Now()
	survey, err := core.NewSurvey(s.sim, s.landmarks, core.SurveyOpts{Probes: probes, UseHeights: true})
	if err != nil {
		return nil, st, fmt.Errorf("survey: %w", err)
	}
	s.survey0 = survey
	s.epochs[0] = survey
	st.survey = time.Since(t0)

	t0 = time.Now()
	if err := s.startFleet(); err != nil {
		s.close()
		return nil, st, err
	}
	st.fleet = time.Since(t0)

	t0 = time.Now()
	if err := s.warm(); err != nil {
		s.close()
		return nil, st, err
	}
	st.warmup = time.Since(t0)
	return s, st, nil
}

func (s *stack) startFleet() error {
	lmAddr := make(map[string]bool, len(s.landmarks))
	for _, lm := range s.landmarks {
		lmAddr[lm.Addr] = true
	}
	s.internal = &http.Transport{MaxIdleConnsPerHost: 64}
	internal := &http.Client{Transport: &spanTransport{base: s.internal}}
	for i := 0; i < fleetNodes; i++ {
		survey := s.survey0
		if i > 0 {
			var buf bytes.Buffer
			if err := s.survey0.WriteSnapshot(&buf); err != nil {
				return err
			}
			var err error
			if survey, err = core.ReadSnapshot(&buf); err != nil {
				return err
			}
		}
		lp := newLaneProber(s.sim, s.cfg.pace, s.cfg.lanes, lmAddr, s.tr, i)
		lopts := lifecycle.Options{Probes: probes}
		if i == 0 {
			lopts.OnSwap = func(e *lifecycle.Epoch, _ *lifecycle.RefreshReport) {
				s.mu.Lock()
				s.epochs[e.Number()] = e.Survey
				s.mu.Unlock()
			}
		}
		manager := lifecycle.New(lp, survey, s.coreCfg, lopts)
		engine := batch.NewWithProvider(manager, batch.Options{Workers: 4, CacheSize: s.cfg.nodeCache})
		srv := serve.New(engine, manager, serve.Options{ActivateDrain: 200 * time.Millisecond})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		n := &node{name: fmt.Sprintf("node-%d", i), srv: srv, prober: lp}
		n.hs = &http.Server{Handler: s.tr.wrap(srv.Handler(), "serve", i)}
		go func() { _ = n.hs.Serve(ln) }()
		s.nodes = append(s.nodes, n)
		s.clients = append(s.clients, &cluster.NodeClient{Name: n.name, BaseURL: "http://" + ln.Addr().String(), HTTP: internal})
	}
	var err error
	if s.router, err = cluster.NewRouter(s.clients, cluster.RouterConfig{CacheSize: s.cfg.l1, ReadyTTL: s.cfg.readyTTL}); err != nil {
		return err
	}
	if s.coord, err = cluster.NewCoordinator(s.clients); err != nil {
		return err
	}
	if s.frontLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	s.frontHS = &http.Server{Handler: s.tr.wrap(cluster.NewFront(s.router, s.coord).Handler(), "cluster", -1)}
	go func() { _ = s.frontHS.Serve(s.frontLn) }()
	s.front = "http://" + s.frontLn.Addr().String()
	conns := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return nil
}

// warm runs one localization per node and one through the front door
// under an options variant outside every workload's key space, so lazy
// per-epoch state (rasterized land masks, pooled grids, connections)
// exists before anything is timed.
func (s *stack) warm() error {
	ctx := context.Background()
	warm := &serve.WireOptions{Weights: map[string]float64{"latency": 0.999}}
	for _, c := range s.clients {
		if _, err := c.LocalizeV2(ctx, s.targets[0].Name, warm); err != nil {
			return fmt.Errorf("warmup on %s: %w", c.Name, err)
		}
	}
	var out serve.TargetResultV2
	if err := s.post(ctx, "/v2/localize", map[string]any{"target": s.targets[1].Name, "options": warm}, &out); err != nil {
		return fmt.Errorf("warmup through the front door: %w", err)
	}
	return nil
}

// enginesFull says whether every node's engine LRU is at capacity.
func (s *stack) enginesFull() bool {
	for _, n := range s.nodes {
		if st := n.srv.Engine().Stats(); st.CacheLen < st.CacheCap {
			return false
		}
	}
	return true
}

// epochSurvey returns the survey node 0 published as epoch e.
func (s *stack) epochSurvey(e uint64) (*core.Survey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.epochs[e]
	return sv, ok
}

// driftRollout injects RTT drift on one landmark pair and runs a
// coordinated rollout. k numbers the rollout within the run; rollout k
// drifts pair (k, k+1) mod n by 5 + k mod 7 ms, a value that pair does not
// already carry, so every call refreshes, publishes and pushes a new epoch.
func (s *stack) driftRollout(ctx context.Context, k int) (*cluster.RolloutReport, time.Duration, error) {
	a, _ := s.world.HostByName(s.landmarks[k%len(s.landmarks)].Addr)
	b, _ := s.world.HostByName(s.landmarks[(k+1)%len(s.landmarks)].Addr)
	s.world.SetPairDriftMs(a.ID, b.ID, 5+float64(k%7))
	ctx, id := s.tr.root(ctx)
	t0 := time.Now()
	rep, err := s.coord.Rollout(ctx, cluster.RolloutOptions{})
	wall := time.Since(t0)
	s.tr.record(span{ID: id, Root: id, Name: "bench.rollout", Node: -1, Start: s.tr.ns(t0), End: s.tr.ns(t0.Add(wall))})
	if err == nil && !rep.Refreshed {
		err = fmt.Errorf("rollout %d published no epoch", k)
	}
	return rep, wall, err
}

func (s *stack) close() {
	if s.frontHS != nil {
		_ = s.frontHS.Close()
	}
	for _, n := range s.nodes {
		_ = n.hs.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.internal != nil {
		s.internal.CloseIdleConnections()
	}
}

// laneProber is the benchmark's prober wrapper. Paced, it models a node's
// measurement pipeline as cluster/fleet.go's pacedProber does: every ping
// train holds one of the node's lanes for a fixed wire time, and the
// simulator answers outside the lane. Traceroutes are not paced. It
// counts trains by kind (landmark→target vs landmark→landmark) and, when
// tracing, records a span per probe call with its lane wait and
// simulator time.
type laneProber struct {
	sim    probe.Prober
	pace   time.Duration
	lanes  chan struct{}
	lmAddr map[string]bool
	tr     *tracer
	node   int

	localizeTrains, refreshTrains atomic.Uint64
	laneHeldNs                    atomic.Int64
}

func newLaneProber(sim probe.Prober, pace time.Duration, lanes int, lmAddr map[string]bool, tr *tracer, node int) *laneProber {
	p := &laneProber{sim: sim, pace: pace, lmAddr: lmAddr, tr: tr, node: node}
	if pace > 0 {
		p.lanes = make(chan struct{}, lanes)
	}
	return p
}

var _ probe.ContextProber = (*laneProber)(nil)

func (p *laneProber) Ping(src, dst string, n int) ([]float64, error) {
	return p.PingContext(context.Background(), src, dst, n)
}

func (p *laneProber) PingContext(ctx context.Context, src, dst string, n int) ([]float64, error) {
	if p.lmAddr[dst] {
		p.refreshTrains.Add(1)
	} else {
		p.localizeTrains.Add(1)
	}
	t0 := time.Now()
	t1 := t0
	if p.lanes != nil {
		select {
		case p.lanes <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		t1 = time.Now()
		time.Sleep(p.pace)
		p.laneHeldNs.Add(int64(time.Since(t1)))
		<-p.lanes
	}
	t2 := time.Now()
	samples, err := p.sim.Ping(src, dst, n)
	if p.tr != nil {
		t3 := time.Now()
		p.tr.child(ctx, span{Name: "probe.ping", Node: p.node, Start: p.tr.ns(t0), End: p.tr.ns(t3),
			WaitNs: int64(t1.Sub(t0)), SimNs: int64(t3.Sub(t2)), Refresh: p.lmAddr[dst]})
	}
	return samples, err
}

func (p *laneProber) Traceroute(src, dst string) ([]probe.Hop, error) {
	return p.TracerouteContext(context.Background(), src, dst)
}

func (p *laneProber) TracerouteContext(ctx context.Context, src, dst string) ([]probe.Hop, error) {
	t0 := time.Now()
	hops, err := p.sim.Traceroute(src, dst)
	if p.tr != nil {
		t1 := time.Now()
		p.tr.child(ctx, span{Name: "probe.traceroute", Node: p.node, Start: p.tr.ns(t0), End: p.tr.ns(t1), SimNs: int64(t1.Sub(t0))})
	}
	return hops, err
}

func (p *laneProber) ReverseDNS(addr string) string { return p.sim.ReverseDNS(addr) }

func (p *laneProber) Whois(addr string) (loc geo.Point, zip string, ok bool) {
	return p.sim.Whois(addr)
}

// spanHeader carries "<root>.<parent>" span ids across the benchmark's
// own HTTP hops: the generator sets it on front-door requests and
// spanTransport copies it onto the router's and coordinator's node
// requests, so node spans join their front-door request exactly. The
// program forwards no request id of its own.
const spanHeader = "X-Perfbench-Span"

// spanTransport is the RoundTripper under the router's and coordinator's
// node clients: it stamps the span id carried by the request context.
type spanTransport struct{ base http.RoundTripper }

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if sc, ok := req.Context().Value(spanKey{}).(spanCtx); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, sc.String())
	}
	return t.base.RoundTrip(req)
}

// spanCtx identifies the span a context belongs to.
type spanCtx struct{ root, id uint64 }

type spanKey struct{}

func (c spanCtx) String() string {
	return strconv.FormatUint(c.root, 10) + "." + strconv.FormatUint(c.id, 10)
}

func parseSpanCtx(h string) (spanCtx, bool) {
	a, b, ok := strings.Cut(h, ".")
	if !ok {
		return spanCtx{}, false
	}
	root, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanCtx{root: root, id: id}, err1 == nil && err2 == nil
}
