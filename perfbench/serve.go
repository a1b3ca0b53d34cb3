package main

// serve-open: an in-process serve.Manager behind real net/http on
// loopback. A closed loop over nproc connections gives the throughput;
// an open-loop schedule at two fixed rates and a max-rate search give
// the latencies. The session pool starts from magus-load's defaults and
// mixes in workloads, governors, fault presets, the waste ledger,
// co-location and power caps. Steps of 2 s virtual (sim-bound) run
// beside 0.1 s steps (HTTP/manager-bound) and status GETs, and a
// session that finishes is closed and replaced, so no step lands on a
// finished session (which would do no simulation).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/serve"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

const (
	opStep2  = iota // 2 s virtual step: sim-bound (magus-load's default)
	opStep01        // 0.1 s virtual step: HTTP/manager-bound
	opStatus        // GET session status
)

// The traffic starts from magus-load's defaults: 8 tenant sessions,
// each bfs under MAGUS on Intel+A100 with no faults, tenant i on seed
// base+i, stepped 2 s at a time. Every feature the benchmark must
// exercise beyond those defaults takes one share in featureEvery: one
// spec in 8 runs another workload, one another governor, one a fault
// preset, one the waste ledger, one co-location and one a power cap,
// and one request in 8 is a 0.1 s step and one a status GET. One in 8
// is the smallest share that keeps every feature live in a pool of 8
// sessions. These shares are chosen, not measured from real traffic.
const featureEvery = 8

const (
	// servePool is the number of live sessions: magus-load's tenants,
	// one slot per feature.
	servePool = featureEvery
	// serveVerify is how many of the first specs (one of each kind) are
	// driven to completion, digested and checked against harness.Run.
	serveVerify = featureEvery
	// stepShare is the share of requests that are steps.
	stepShare = 1 - 1.0/featureEvery
	// Fixed offered rates (requests per second, all kinds) and the
	// latency limit of the max-rate search. Unloaded, a step of this mix
	// takes about 2-3 ms on a 2-core host, so the limit is about 10x
	// that. There the search finds about 500 req/s and the closed loop
	// sustains about 1100, so the heavy rate loads the daemon without a
	// slow spell of a shared host turning it into an overload.
	serveLightRPS = 175
	serveHeavyRPS = 350
	serveLimitMs  = 20.0
	// The closed loop runs serveClosedRounds rounds; sim_s_per_s is the
	// median round.
	serveClosedRounds = 10
	// The traced run replays serveReplayOps requests through each layer
	// in serveReplayReps alternating rounds.
	serveReplayOps  = 500
	serveReplayReps = 3
)

// serveApps are the short catalog apps feature specs rotate through
// (besides magus-load's bfs), so sessions finish and are replaced many
// times in a run.
var serveApps = []string{"fdtd2d", "nw", "where", "particlefilter_float", "gemm", "sort"}

// serveSpec is the idx-th session spec of the pool's sequence:
// magus-load's default spec, with spec idx%featureEvery in 2..7
// swapping in one feature. Which workload, governor or preset a
// feature spec uses rotates with idx.
func serveSpec(seed int64, idx int) serve.Spec {
	sp := serve.Spec{
		Tenant:   fmt.Sprintf("t%05d", idx),
		Seed:     seed + int64(idx),
		Workload: "bfs",
		Governor: "magus",
	}
	turn := idx / featureEvery
	switch idx % featureEvery {
	case 2:
		sp.Workload = serveApps[turn%len(serveApps)]
	case 3:
		sp.Governor = []string{"ups", "duf", "default"}[turn%3]
	case 4:
		sp.Faults = []string{"pcm-flaky", "msr-flaky", "pcm-stale"}[turn%3]
	case 5:
		sp.Waste = true
	case 6:
		sp.Workload = ""
		sp.Colocate = []serve.ColocateTenant{{Tenant: "a", Workload: "bfs"}, {Tenant: "b", Workload: serveApps[turn%len(serveApps)]}}
	case 7:
		sp.PowerCapW = 150
	}
	return sp
}

// specRun wires a spec the way a serve session does: the same node
// preset, governor table, power cap, fault plan and colocation. With
// observers set it also arms the session's spans (waste) and flight
// ring, so the run does the same work as the daemon's.
func specRun(sp serve.Spec, observers bool, flightCap int) (node.Config, *workload.Program, governor.Governor, harness.Options, error) {
	var cfg node.Config
	switch sp.System {
	case "", "a100":
		cfg = node.IntelA100()
	case "4a100":
		cfg = node.Intel4A100()
	case "max1550":
		cfg = node.IntelMax1550()
	default:
		return cfg, nil, nil, harness.Options{}, fmt.Errorf("unknown system %q", sp.System)
	}
	opt := harness.Options{Seed: sp.Seed}
	var prog *workload.Program
	if len(sp.Colocate) > 0 {
		ms := &workload.MuxSpec{Policy: workload.RoundRobin}
		for _, t := range sp.Colocate {
			p, ok := workload.ByName(t.Workload)
			if !ok {
				return cfg, nil, nil, opt, fmt.Errorf("unknown workload %q", t.Workload)
			}
			ms.Tenants = append(ms.Tenants, workload.TenantSpec{Tenant: t.Tenant, Program: p, Seed: sp.Seed})
		}
		opt.Tenants = ms
	} else {
		p, ok := workload.ByName(sp.Workload)
		if !ok {
			return cfg, nil, nil, opt, fmt.Errorf("unknown workload %q", sp.Workload)
		}
		prog = p
	}
	var gov governor.Governor
	switch sp.Governor {
	case "", "magus":
		gov = core.New(core.DefaultConfig())
	case "ups":
		gov = governor.NewUPS(governor.UPSConfig{})
	case "duf":
		gov = governor.NewDUF(governor.DUFConfig{})
	case "default":
		gov = governor.NewDefault()
	default:
		return cfg, nil, nil, opt, fmt.Errorf("unknown governor %q", sp.Governor)
	}
	if sp.PowerCapW > 0 {
		gov = governor.WithPowerCap(gov, sp.PowerCapW)
	}
	if sp.Faults != "" {
		plan, ok := faults.Preset(sp.Faults)
		if !ok {
			return cfg, nil, nil, opt, fmt.Errorf("unknown fault preset %q", sp.Faults)
		}
		plan.Seed = sp.Seed
		opt.Faults = plan
	}
	if observers {
		if sp.Waste {
			opt.Spans = spans.New(core.DefaultConfig().Window)
		}
		if flightCap > 0 {
			opt.Flight = flight.NewRing(flightCap)
		}
	}
	return cfg, prog, gov, opt, nil
}

func resultJSON(r harness.Result) serve.ResultJSON {
	return serve.ResultJSON{
		RuntimeS: r.RuntimeS, AvgCPUPowerW: r.AvgCPUPowerW,
		PkgEnergyJ: r.PkgEnergyJ, DramEnergyJ: r.DramEnergyJ, GPUEnergyJ: r.GPUEnergyJ,
		TotalEnergyJ: r.TotalEnergyJ(), FaultsFired: r.FaultsInjected.Total(),
	}
}

// backend is one way of reaching the sessions: over HTTP, through the
// manager's methods, or straight into harness.Steppable.
type backend interface {
	create(sp serve.Spec) (string, error)
	step(id string, d time.Duration) (serve.StepResult, error)
	status(id string) error
	close(id string) error
}

type httpBackend struct {
	base   string
	client *http.Client
}

func (b httpBackend) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		js, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (b httpBackend) create(sp serve.Spec) (string, error) {
	var st serve.Status
	err := b.do(http.MethodPost, "/api/v1/sessions", sp, http.StatusCreated, &st)
	return st.ID, err
}

func (b httpBackend) step(id string, d time.Duration) (serve.StepResult, error) {
	var sr serve.StepResult
	err := b.do(http.MethodPost, "/api/v1/sessions/"+id+"/step", map[string]float64{"seconds": d.Seconds()}, http.StatusOK, &sr)
	return sr, err
}

func (b httpBackend) status(id string) error {
	return b.do(http.MethodGet, "/api/v1/sessions/"+id, nil, http.StatusOK, nil)
}

func (b httpBackend) close(id string) error {
	return b.do(http.MethodDelete, "/api/v1/sessions/"+id, nil, http.StatusNoContent, nil)
}

type managerBackend struct{ mg *serve.Manager }

func (b managerBackend) create(sp serve.Spec) (string, error) {
	st, err := b.mg.Create(sp)
	return st.ID, err
}
func (b managerBackend) step(id string, d time.Duration) (serve.StepResult, error) {
	return b.mg.Step(id, d)
}
func (b managerBackend) status(id string) error { _, err := b.mg.Get(id); return err }
func (b managerBackend) close(id string) error  { return b.mg.CloseSession(id) }

// harnessBackend drives harness.Steppable directly, wired from each
// spec as a session would be. wrap, when set, wraps every governor
// inside its power cap, where the harness looks for the governor's
// hooks.
type harnessBackend struct {
	runs      map[string]*harness.Steppable
	flightCap int
	wrap      func(governor.Governor) governor.Governor
	next      int
	rings     []*flight.Ring
}

func (b *harnessBackend) create(sp serve.Spec) (string, error) {
	cfg, prog, gov, opt, err := specRun(sp, true, b.flightCap)
	if err != nil {
		return "", err
	}
	if b.wrap != nil {
		if pc, ok := gov.(*governor.PowerCapped); ok {
			gov = governor.WithPowerCap(b.wrap(pc.Inner()), pc.CapWatts())
		} else {
			gov = b.wrap(gov)
		}
	}
	if opt.Flight != nil {
		b.rings = append(b.rings, opt.Flight)
	}
	st, err := harness.NewSteppable(cfg, prog, gov, opt)
	if err != nil {
		return "", err
	}
	b.next++
	id := fmt.Sprintf("h-%06d", b.next)
	b.runs[id] = st
	return id, nil
}

func (b *harnessBackend) step(id string, d time.Duration) (serve.StepResult, error) {
	st := b.runs[id]
	done, err := st.Advance(d)
	if err != nil {
		return serve.StepResult{}, err
	}
	sr := serve.StepResult{ID: id, NowS: st.Now().Seconds(), Done: done}
	if done {
		r := resultJSON(st.Result())
		sr.Result = &r
	}
	return sr, nil
}

func (b *harnessBackend) status(id string) error {
	if _, ok := b.runs[id]; !ok {
		return fmt.Errorf("no run %s", id)
	}
	return nil
}

func (b *harnessBackend) close(id string) error { delete(b.runs, id); return nil }

// flightRecords counts the records every session's flight ring took.
func (b *harnessBackend) flightRecords() uint64 {
	var n uint64
	for _, r := range b.rings {
		n += r.Recorded()
	}
	return n
}

// slotState is one live session; only its owning connection touches it.
type slotState struct {
	id   string
	spec int
	now  float64
}

// pool keeps servePool sessions alive over a backend. Slot k holds the
// specs k, k+servePool, k+2*servePool, ... in turn, so it always holds
// the same feature (servePool == featureEvery) and the mix of live
// sessions does not drift with timing.
type pool struct {
	b     backend
	seed  int64
	slots []slotState

	mu      sync.Mutex
	results map[int]serve.ResultJSON

	// Replacement traffic, counted apart from scheduled ops.
	attempted, failed, completed atomic.Int64
	createNs, closeNs            atomic.Int64
	creates, closes              atomic.Int64
}

func newPool(b backend, seed int64) (*pool, error) {
	p := &pool{b: b, seed: seed, slots: make([]slotState, servePool), results: map[int]serve.ResultJSON{}}
	for i := range p.slots {
		if err := p.admit(i, i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// admit creates spec idx's session in slot.
func (p *pool) admit(slot, idx int) error {
	p.attempted.Add(1)
	t0 := nanotime()
	id, err := p.b.create(serveSpec(p.seed, idx))
	p.createNs.Add(nanotime() - t0)
	p.creates.Add(1)
	if err != nil {
		p.failed.Add(1)
		return fmt.Errorf("create spec %d: %w", idx, err)
	}
	p.slots[slot] = slotState{id: id, spec: idx}
	return nil
}

// do performs one scheduled op.
func (p *pool) do(op schedOp) (float64, error) {
	s := &p.slots[op.slot]
	if op.kind == opStatus {
		return 0, p.b.status(s.id)
	}
	d := 2 * time.Second
	if op.kind == opStep01 {
		d = 100 * time.Millisecond
	}
	sr, err := p.b.step(s.id, d)
	if err != nil {
		return 0, err
	}
	virt := sr.NowS - s.now
	s.now = sr.NowS
	if sr.Done {
		if err := p.finish(op.slot, sr.Result); err != nil {
			return virt, err
		}
	}
	return virt, nil
}

// finish records a finished session's result, closes it and admits
// the next spec in its slot.
func (p *pool) finish(slot int, res *serve.ResultJSON) error {
	s := p.slots[slot]
	p.completed.Add(1)
	if s.spec < serveVerify && res != nil {
		p.mu.Lock()
		p.results[s.spec] = *res
		p.mu.Unlock()
	}
	p.attempted.Add(1)
	t0 := nanotime()
	err := p.b.close(s.id)
	p.closeNs.Add(nanotime() - t0)
	p.closes.Add(1)
	if err != nil {
		p.failed.Add(1)
		return fmt.Errorf("close %s: %w", s.id, err)
	}
	return p.admit(slot, s.spec+servePool)
}

// drainVerify steps every session still holding one of the first
// serveVerify specs to completion, so the digest never depends on how
// far the timed phases got.
func (p *pool) drainVerify() error {
	for i := range p.slots {
		for p.slots[i].spec < serveVerify {
			sr, err := p.b.step(p.slots[i].id, 30*time.Second)
			if err != nil {
				return err
			}
			if sr.Done {
				if err := p.finish(i, sr.Result); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// digest hashes the results of the first serveVerify specs.
func (p *pool) digest() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := sha256.New()
	for i := 0; i < serveVerify; i++ {
		r, ok := p.results[i]
		if !ok {
			return "", fmt.Errorf("spec %d never finished", i)
		}
		js, _ := json.Marshal(r)
		fmt.Fprintf(h, "%d %s\n", i, js)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:32], nil
}

// verify checks every recorded result against harness.Run of its spec.
func (p *pool) verify(rep *report) {
	for i := 0; i < serveVerify; i++ {
		rep.attempted++
		cfg, prog, gov, opt, err := specRun(serveSpec(p.seed, i), false, 0)
		if err != nil {
			rep.fail("spec %d: %v", i, err)
			continue
		}
		want, err := harness.Run(cfg, prog, gov, opt)
		if err != nil {
			rep.fail("harness.Run spec %d: %v", i, err)
			continue
		}
		p.mu.Lock()
		got := p.results[i]
		p.mu.Unlock()
		if got != resultJSON(want) {
			rep.fail("spec %d: served result %+v differs from harness.Run %+v", i, got, resultJSON(want))
		}
	}
}

// drawKind draws an op kind: one request in featureEvery is a 0.1 s
// step, one a status GET, the rest 2 s steps.
func drawKind(rng *rand.Rand) int {
	switch rng.Intn(featureEvery) {
	case 0:
		return opStep01
	case 1:
		return opStatus
	}
	return opStep2
}

// opMix draws ops over the whole pool.
func opMix(rng *rand.Rand) func(i int) (kind, slot int) {
	return func(int) (int, int) { return drawKind(rng), rng.Intn(servePool) }
}

// daemon is the in-process service under test.
type daemon struct {
	mg     *serve.Manager
	srv    *http.Server
	served chan error
	be     httpBackend
}

func startDaemon(cfg serve.Config, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mg := serve.NewManager(cfg)
	d := &daemon{mg: mg, srv: serve.NewServer("", serve.NewHTTPHandler(mg)), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.be = httpBackend{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	return d, nil
}

// stop shuts the server and the manager down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.be.client.CloseIdleConnections()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := d.mg.Close(ctx); err == nil {
		err = merr
	}
	return err
}

// scrape reads counters off /metrics.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	resp, err := d.be.client.Get(d.be.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				var v float64
				fmt.Sscan(f[1], &v)
				out[n] = v
			}
		}
	}
	return out, nil
}

// served is a running daemon with its admitted pool.
type served struct {
	d  *daemon
	pl *pool
}

// serveSetup starts the daemon and admits the initial pool over HTTP,
// timed as timedSetup times every workload's set-up; every daemon but
// the last is stopped outside the timed region.
func serveSetup(p params) (*daemon, *pool, float64, error) {
	sv, setupS, err := timedSetup(func() (served, error) {
		d, err := startDaemon(serve.Config{}, min(p.nproc, servePool))
		if err != nil {
			return served{}, err
		}
		pl, err := newPool(d.be, p.seed)
		if err != nil {
			d.stop()
			return served{}, err
		}
		return served{d, pl}, nil
	}, func(sv served) error { return sv.d.stop() })
	return sv.d, sv.pl, setupS, err
}

// phase is one fixed-rate stretch of the open-loop run.
type phase struct {
	rate           float64
	samples        []sample
	stepMs, lateMs []float64
	errs           int
}

func runPhase(pl *pool, rng *rand.Rand, rate, seconds float64, conns int) phase {
	n := int(rate * seconds)
	if n < 1 {
		n = 1
	}
	ops := uniformSchedule(n, rate, conns, opMix(rng))
	ss := runOpenLoop(ops, conns, pl.do)
	ph := phase{rate: rate, samples: ss}
	for _, s := range ss {
		ph.lateMs = append(ph.lateMs, s.late.Seconds()*1000)
		if s.err != nil {
			ph.errs++
			continue
		}
		if s.kind != opStatus {
			ph.stepMs = append(ph.stepMs, s.latency.Seconds()*1000)
		}
	}
	return ph
}

// p99 of a phase's step latencies; a failed request misses the limit.
func (ph phase) p99() (float64, bool) {
	xs := ph.stepMs
	for i := 0; i < ph.errs; i++ {
		xs = append(xs, math.Inf(1))
	}
	return percentile(xs, 0.99)
}

// maxRate searches the highest offered rate whose step p99 meets
// serveLimitMs with no growing backlog. The fixed-rate phases count as
// its first stages; further stages step the rate by a factor of 1.4
// away from them until one passes and one fails. The answer
// interpolates between the highest passing and lowest failing rate in
// log p99, so it is a measurement rather than one of a few grid values.
func maxRate(pl *pool, rng *rand.Rand, known []phase, conns int, rep *report) (float64, []phase) {
	const (
		factor   = 1.4
		maxDown  = 2 // stages below the lightest fixed rate
		maxTotal = 8 // stages in all, the fixed-rate phases included
	)
	pass := func(ph phase) bool {
		v, ok := ph.p99()
		if !ok || v > serveLimitMs || len(ph.stepMs) < 50 {
			return false
		}
		// A growing backlog shows as latency still rising at the end
		// of the stage: the last 50 steps must meet the limit too.
		return median(ph.stepMs[len(ph.stepMs)-50:]) <= serveLimitMs
	}
	stages := append([]phase(nil), known...)
	// bracket returns the lowest failing stage and the highest passing
	// stage below it (-1 when there is none).
	bracket := func() (lo, hi int) {
		lo, hi = -1, -1
		for i, st := range stages {
			if !pass(st) && (hi < 0 || st.rate < stages[hi].rate) {
				hi = i
			}
		}
		for i, st := range stages {
			if pass(st) && (hi < 0 || st.rate < stages[hi].rate) && (lo < 0 || st.rate > stages[lo].rate) {
				lo = i
			}
		}
		return lo, hi
	}
	down := 0
	for len(stages) < maxTotal {
		lo, hi := bracket()
		var rate float64
		switch {
		case lo < 0 && down < maxDown:
			down++
			rate = stages[hi].rate / factor
		case lo < 0:
		case hi < 0:
			rate = stages[lo].rate * factor
		}
		if rate == 0 {
			break
		}
		secs := math.Max(1.2, 1100/(rate*stepShare)) // >= 1000 step samples for a p99
		stages = append(stages, runPhase(pl, rng, rate, secs, conns))
	}
	extra := stages[len(known):]
	lo, hi := bracket()
	if lo < 0 {
		rep.note("max-rate search: no stage met the limit")
		return 0, extra
	}
	if hi < 0 {
		rep.note("max-rate search: every stage met the limit; reporting the highest rate tried")
		return stages[lo].rate, extra
	}
	a, _ := stages[lo].p99()
	b, ok := stages[hi].p99()
	if !ok || math.IsInf(b, 1) || b <= a {
		return stages[lo].rate, extra
	}
	f := (math.Log(serveLimitMs) - math.Log(a)) / (math.Log(b) - math.Log(a))
	return stages[lo].rate + f*(stages[hi].rate-stages[lo].rate), extra
}

// closedLoop runs serveClosedRounds rounds of a closed loop, seconds in
// all: each connection sends the op mix to the sessions it owns, the
// next request as soon as the last one completes, so the rate is what
// the daemon sustains rather than what a schedule offers. It returns
// each round's virtual seconds delivered per wall second and requests
// per wall second.
func closedLoop(pl *pool, seed int64, conns int, seconds float64, rep *report) (simRates, reqRates []float64) {
	rngs := make([]*rand.Rand, conns)
	own := make([][]int, conns)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*7919 + int64(c)))
		for s := c; s < servePool; s += conns {
			own[c] = append(own[c], s)
		}
	}
	next := func(c int) schedOp {
		return schedOp{conn: c, kind: drawKind(rngs[c]), slot: own[c][rngs[c].Intn(len(own[c]))]}
	}
	for r := 0; r < serveClosedRounds; r++ {
		runtime.GC()
		ss, wall := runClosedLoop(conns, seconds/serveClosedRounds, next, pl.do)
		var virt float64
		for _, s := range ss {
			rep.attempted++
			if s.err != nil {
				rep.fail("closed loop round %d: %v", r, s.err)
				continue
			}
			virt += s.virtS
		}
		simRates = append(simRates, virt/wall.Seconds())
		reqRates = append(reqRates, float64(len(ss))/wall.Seconds())
	}
	return simRates, reqRates
}

func runServe(p params) (*report, error) {
	rep := newReport()
	d, pl, setupS, err := serveSetup(p)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.setupS = setupS
	rng := rand.New(rand.NewSource(p.seed))
	conns := min(p.nproc, servePool)

	var reqRates []float64
	rep.simRates, reqRates = closedLoop(pl, p.seed, conns, p.seconds*0.45, rep)
	rep.note("closed loop over %d connections: median %.0f req/s", conns, median(reqRates))
	light := runPhase(pl, rng, serveLightRPS, p.seconds*0.35, conns)
	heavy := runPhase(pl, rng, serveHeavyRPS, p.seconds*0.2, conns)
	best, stages := maxRate(pl, rng, []phase{light, heavy}, conns, rep)
	for _, ph := range append([]phase{light, heavy}, stages...) {
		rep.attempted += len(ph.samples)
		rep.failed += ph.errs
	}
	for _, ph := range []struct {
		name string
		ph   phase
	}{{"light", light}, {"heavy", heavy}} {
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, ok := percentile(ph.ph.stepMs, q.p)
			if !ok {
				rep.note("step_%s_ms.%s: fewer than %d samples beyond it (%d samples)", q.name, ph.name, minTail, len(ph.ph.stepMs))
				continue
			}
			rep.set("step_"+q.name+"_ms."+ph.name, "ms", v)
		}
	}
	rep.set("max_step_rps", "req/s", best)
	for _, st := range stages {
		v, _ := st.p99()
		rep.note("search stage: %.1f req/s offered, step p99 %.2f ms over %d steps", st.rate, v, len(st.stepMs))
	}
	if err := pl.drainVerify(); err != nil {
		rep.fail("drain: %v", err)
	}
	rep.attempted += int(pl.attempted.Load())
	rep.failed += int(pl.failed.Load())
	pl.verify(rep)
	if rep.digest, err = pl.digest(); err != nil {
		rep.fail("%v", err)
	}
	rep.setEndToEnd()
	rep.note("%d sessions completed; light %d, heavy %d step samples",
		pl.completed.Load(), len(light.stepMs), len(heavy.stepMs))
	return rep, nil
}

// replayTimes sums an unloaded replay's request times by kind.
type replayTimes struct {
	stepNs, statusNs  int64
	steps, statuses   int64
	createNs, closeNs int64
	creates, closes   int64
	virtS             float64
	// cpuNs is the process CPU time the requests took.
	cpuNs int64
	// flight counts the flight records a harness replay's rings took.
	flight uint64
	pool   *pool
}

// replay runs ops one after another (unloaded) against b.
func replay(b backend, seed int64, ops []schedOp, tr *tracer, name string) (replayTimes, error) {
	pl, err := newPool(b, seed)
	if err != nil {
		return replayTimes{}, err
	}
	initCreateNs := pl.createNs.Load()
	var rt replayTimes
	c0 := cpuNow()
	for i, op := range ops {
		s := nanotime()
		v, err := pl.do(op)
		e := nanotime()
		if err != nil {
			return rt, fmt.Errorf("%s op %d: %w", name, i, err)
		}
		if tr != nil {
			tr.record(0, i+1, name, s, e)
		}
		rt.virtS += v
		if op.kind == opStatus {
			rt.statusNs += e - s
			rt.statuses++
		} else {
			rt.stepNs += e - s
			rt.steps++
		}
	}
	rt.cpuNs = int64(cpuNow() - c0)
	// Replacements (close + create) ran inside step ops; take them out
	// so the step time is the step alone.
	rt.createNs, rt.closeNs = pl.createNs.Load(), pl.closeNs.Load()
	rt.creates, rt.closes = pl.creates.Load(), pl.closes.Load()
	rt.stepNs -= rt.createNs - initCreateNs + rt.closeNs
	if err := pl.drainVerify(); err != nil {
		return rt, err
	}
	if hb, ok := b.(*harnessBackend); ok {
		rt.flight = hb.flightRecords()
	}
	rt.pool = pl
	return rt, nil
}

func (rt replayTimes) usPerStep() float64 { return float64(rt.stepNs) / 1e3 / float64(rt.steps) }

func tracedServe(p params) (*report, error) {
	rep := newReport()
	tr := newTracer()
	rep.tr = tr
	d, pl, setupS, err := serveSetup(p)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS
	rng := rand.New(rand.NewSource(p.seed))

	// One loaded phase at the heavy rate for the generator's lateness
	// and the daemon's own counters.
	heavy := runPhase(pl, rng, serveHeavyRPS, math.Min(p.seconds*0.25, 3), min(p.nproc, servePool))
	rep.attempted += len(heavy.samples)
	rep.failed += heavy.errs
	late, _ := percentile(heavy.lateMs, 0.99)
	counts, err := d.scrape("magus_serve_shed_total", "magus_serve_rejected_session_limit_total", "magus_serve_sessions_completed_total")
	if err != nil {
		rep.fail("scrape /metrics: %v", err)
	}
	if err := d.stop(); err != nil {
		rep.fail("stop: %v", err)
	}

	// The same request sequence replayed unloaded through each layer,
	// in alternating rounds so drift in host speed falls evenly on every
	// variant; each variant reports its median round.
	ops := uniformSchedule(serveReplayOps, 1, 1, opMix(rand.New(rand.NewSource(p.seed+1))))
	httpReplay := func(t *tracer, name string) (replayTimes, error) {
		dd, err := startDaemon(serve.Config{}, 1)
		if err != nil {
			return replayTimes{}, err
		}
		rt, err := replay(dd.be, p.seed, ops, t, name)
		if serr := dd.stop(); err == nil {
			err = serr
		}
		return rt, err
	}
	mgrReplay := func(cfg serve.Config, mutate func(*serve.Spec), name string) (replayTimes, error) {
		mg := serve.NewManager(cfg)
		defer mg.Close(context.Background())
		var b backend = managerBackend{mg}
		if mutate != nil {
			b = specMutator{b, mutate}
		}
		return replay(b, p.seed, ops, tr, name)
	}
	var govNs, invokes int64
	variants := []struct {
		name string
		run  func(name string) (replayTimes, error)
	}{
		{"serve.http.untraced", func(n string) (replayTimes, error) { return httpReplay(nil, n) }},
		{"serve.http", func(n string) (replayTimes, error) { return httpReplay(tr, n) }},
		{"serve.manager", func(n string) (replayTimes, error) { return mgrReplay(serve.Config{}, nil, n) }},
		{"serve.manager.noflight", func(n string) (replayTimes, error) { return mgrReplay(serve.Config{FlightCap: -1}, nil, n) }},
		{"serve.manager.waste", func(n string) (replayTimes, error) {
			return mgrReplay(serve.Config{}, func(s *serve.Spec) { s.Waste = true }, n)
		}},
		{"serve.manager.nowaste", func(n string) (replayTimes, error) {
			return mgrReplay(serve.Config{}, func(s *serve.Spec) { s.Waste = false }, n)
		}},
		{"serve.harness", func(n string) (replayTimes, error) {
			return replay(&harnessBackend{runs: map[string]*harness.Steppable{}, flightCap: flight.DefaultCap}, p.seed, ops, tr, n)
		}},
		{"serve.harness.timed_governor", func(n string) (replayTimes, error) {
			hg := &harnessBackend{runs: map[string]*harness.Steppable{}, flightCap: flight.DefaultCap,
				wrap: func(g governor.Governor) governor.Governor { return timeGovernor(g, &govNs, &invokes) }}
			return replay(hg, p.seed, ops, nil, n)
		}},
	}
	runs := map[string][]replayTimes{}
	for r := 0; r < serveReplayReps; r++ {
		for _, v := range variants {
			// Start every replay from a collected heap, so no variant
			// pays for the garbage of the one before it.
			runtime.GC()
			rt, err := v.run(v.name)
			if err != nil {
				return nil, err
			}
			runs[v.name] = append(runs[v.name], rt)
		}
	}
	want, err := runs["serve.http"][0].pool.digest()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"serve.http.untraced", "serve.http", "serve.manager", "serve.harness", "serve.harness.timed_governor"} {
		for _, rt := range runs[name] {
			rep.attempted += len(ops)
			if d, err := rt.pool.digest(); err != nil || d != want {
				rep.fail("%s replay disagrees on the digest", name)
			}
		}
	}
	// The timed governors must leave the harness the hooks it attaches
	// to the governors themselves: the flight rings record the same.
	for _, rt := range runs["serve.harness.timed_governor"] {
		if wantRec := runs["serve.harness"][0].flight; rt.flight != wantRec {
			rep.fail("timed-governor replay took %d flight records, the plain harness replay %d", rt.flight, wantRec)
		}
	}
	med := func(name string, f func(replayTimes) float64) float64 {
		var xs []float64
		for _, rt := range runs[name] {
			xs = append(xs, f(rt))
		}
		return median(xs)
	}
	perStep := func(name string) float64 { return med(name, replayTimes.usPerStep) }
	httpSelf := perStep("serve.http") - perStep("serve.manager")
	mgrSelf := perStep("serve.manager") - perStep("serve.harness")
	harnessUs := perStep("serve.harness")
	rep.set("serve.http.us_per_step", "us", httpSelf)
	rep.set("serve.manager.us_per_step", "us", mgrSelf)
	rep.set("serve.harness.us_per_step", "us", harnessUs)
	rep.set("serve.create_us", "us", med("serve.http", func(rt replayTimes) float64 { return float64(rt.createNs) / 1e3 / float64(rt.creates) }))
	rep.set("serve.close_us", "us", med("serve.http", func(rt replayTimes) float64 { return float64(rt.closeNs) / 1e3 / float64(max(rt.closes, 1)) }))
	rep.set("serve.status_us", "us", med("serve.http", func(rt replayTimes) float64 { return float64(rt.statusNs) / 1e3 / float64(rt.statuses) }))
	rep.set("serve.flight.us_per_step", "us", perStep("serve.manager")-perStep("serve.manager.noflight"))
	rep.set("serve.spans.us_per_step", "us", perStep("serve.manager.waste")-perStep("serve.manager.nowaste"))
	rep.set("serve.gen.late_ms_p99", "ms", late)
	rep.set("serve.shed_503", "count", counts["magus_serve_shed_total"])
	rep.set("serve.rejected_429", "count", counts["magus_serve_rejected_session_limit_total"])
	rep.set("serve.sessions_completed", "count", counts["magus_serve_sessions_completed_total"])
	whole := perStep("serve.http.untraced")
	overhead := (perStep("serve.http") - whole) / whole
	rep.set("serve.unaccounted_frac", "ratio", (whole-(httpSelf+mgrSelf+harnessUs))/whole)
	rep.set("serve.trace_overhead_frac", "ratio", overhead)

	// One node tick per virtual millisecond.
	ticks := runs["serve.http.untraced"][0].virtS * 1000
	rep.set("serve.harness.ns_per_tick", "ns", med("serve.harness", func(rt replayTimes) float64 { return float64(rt.stepNs) / (rt.virtS * 1000) }))
	rep.set("layer.tick_ns", "ns", med("serve.http.untraced", func(rt replayTimes) float64 { return float64(rt.cpuNs) / (rt.virtS * 1000) }))
	rep.set("layer.ticks", "count", ticks)
	rep.set("layer.governor.ns_per_invoke", "ns", float64(govNs)/float64(invokes))
	rep.set("layer.governor.invokes", "count", float64(invokes)/serveReplayReps)
	rep.set("layer.trace_overhead_frac", "ratio", overhead)

	runs["serve.http"][0].pool.verify(rep)
	rep.digest = want
	return rep, nil
}

// specMutator rewrites specs before they reach the backend.
type specMutator struct {
	backend
	mutate func(*serve.Spec)
}

func (m specMutator) create(sp serve.Spec) (string, error) {
	m.mutate(&sp)
	return m.backend.create(sp)
}
