package main

// fleet: mixed presets round-robin, short Fig. 4a catalog apps,
// default/MAGUS/UPS members and a few members under fault presets, run
// through cluster.RunFleet the way `magus-bench -fleet` runs it
// (aggregate telemetry, waste ledger, distribution sketches, top-K,
// Shards = nproc). It exercises the shard tick, node.Batch,
// telemetry.Block and sketch, which paper-sweep never enters. Short
// apps keep ticking until the makespan, so quiescent members are part
// of the load, and the member count keeps member state well beyond L2.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/workload"
)

// fleetMembers sizes the fleet: several hundred members, so member
// state outgrows L2, with apps short enough for a run to take about
// a second on two cores.
const fleetMembers = 300

// fleetApps are the shortest Fig. 4a apps (about 10-12.5 s nominal).
var fleetApps = []string{"fdtd2d", "particlefilter_float", "nw", "where"}

// fleetFaults arm one member in fleetFaultEvery.
var fleetFaults = []string{"pcm-flaky", "msr-flaky", "pcm-stale", "rapl-outage"}

const fleetFaultEvery = 24

// fleetSpecs builds the fleet. wrap, when set, wraps every member's
// governor (the traced run's timers).
func fleetSpecs(seed int64, wrap func(i int, g governor.Governor) governor.Governor) ([]cluster.NodeSpec, error) {
	presets := []func() node.Config{node.IntelA100, node.Intel4A100, node.IntelMax1550}
	rng := rand.New(rand.NewSource(seed))
	apps := append([]string(nil), fleetApps...)
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	specs := make([]cluster.NodeSpec, fleetMembers)
	for i := range specs {
		cfg := presets[i%len(presets)]()
		prog, ok := workload.ByName(apps[(i/len(presets))%len(apps)])
		if !ok {
			return nil, fmt.Errorf("unknown workload")
		}
		var f harness.GovernorFactory
		switch (i / 2) % 3 {
		case 0:
			f = defaultFactory
		case 1:
			f = magusFactory(cfg.Name)
		default:
			f = upsFactory(cfg.Name)
		}
		if wrap != nil {
			inner, idx := f, i
			f = func() governor.Governor { return wrap(idx, inner()) }
		}
		s := seed + int64(i)*131
		specs[i] = cluster.NodeSpec{
			Name: fmt.Sprintf("m%04d", i), Config: cfg, Workload: prog, Factory: f, Seed: s,
		}
		if i%fleetFaultEvery == fleetFaultEvery-1 {
			plan, _ := faults.Preset(fleetFaults[(i/fleetFaultEvery)%len(fleetFaults)])
			plan.Seed = s
			specs[i].Faults = plan
		}
	}
	return specs, nil
}

// fleetSetup builds the specs and wires every member the way the
// cluster engine does (node, runner, fault set, environment, governor
// attach), without running it.
func fleetSetup(seed int64) ([]cluster.NodeSpec, error) {
	specs, err := fleetSpecs(seed, nil)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		n := node.New(s.Config)
		workload.NewRunner(s.Workload, s.Config.SystemBWGBs(), s.Seed).SetAttained(n.AttainedGBs)
		var fset *faults.Set
		if s.Faults.Armed() {
			fset = faults.NewSet(s.Faults, func() time.Duration { return 0 })
		}
		env, err := harness.BuildFaultyEnv(n, fset)
		if err != nil {
			return nil, err
		}
		if err := s.Factory().Attach(env); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

func fleetOptions(nproc int) cluster.Options {
	return cluster.Options{
		Shards:    nproc,
		Telemetry: cluster.TelemetryAggregate,
		TopK:      5,
		Waste:     true,
		Dist:      true,
	}
}

// fleetDigest hashes every simulated output of a fleet run.
func fleetDigest(r cluster.Result) string {
	b, err := json.Marshal(struct {
		A                           any
		Makespan, Energy, Peak, Avg float64
		Top, Waste, Balanced, Dist  any
	}{r.Aggregate, r.MakespanS, r.EnergyJ, r.PeakW, r.AvgW, r.Top, r.UncoreWaste, r.WasteBalanced, r.Dist})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:32]
}

func nodeSteps(r cluster.Result) float64 {
	return float64(fleetMembers) * r.MakespanS * 1000
}

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fleetRun runs the fleet once and checks its invariants.
func fleetRun(rep *report, specs []cluster.NodeSpec, opt cluster.Options) (cluster.Result, float64, time.Duration, bool) {
	rep.attempted++
	c0, t0 := cpuNow(), time.Now()
	r, err := cluster.RunFleet(specs, opt)
	wall, cpu := time.Since(t0).Seconds(), cpuNow()-c0
	if err != nil {
		rep.fail("RunFleet: %v", err)
		return r, wall, cpu, false
	}
	if opt.Waste && !r.WasteBalanced {
		rep.fail("fleet waste ledger does not balance")
		return r, wall, cpu, false
	}
	return r, wall, cpu, true
}

func runFleet(p params) (*report, error) {
	rep := newReport()
	_, setupS, err := timedSetup(func() ([]cluster.NodeSpec, error) { return fleetSetup(p.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS
	var first cluster.Result
	start := time.Now()
	for r := 0; r < 3 || time.Since(start).Seconds() < p.seconds; r++ {
		// Fault plans are consumed by the run that arms them, so each
		// round builds its specs afresh (outside the timed call).
		specs, err := fleetSpecs(p.seed, nil)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		res, wall, _, ok := fleetRun(rep, specs, fleetOptions(p.nproc))
		if !ok {
			continue
		}
		rep.simRates = append(rep.simRates, nodeSteps(res)/1000/wall)
		if r == 0 {
			first = res
		} else if fleetDigest(res) != fleetDigest(first) {
			rep.fail("round %d differs from the first", r)
		}
	}
	if first.Aggregate == nil {
		return rep, nil
	}
	rep.note("blockPool arenas are cold in round 0 and warm afterwards; sim_s_per_s is the median over rounds")
	rep.setEndToEnd()
	fleetVirtual(rep, first)
	rep.digest = fleetDigest(first)
	return rep, nil
}

func fleetVirtual(rep *report, r cluster.Result) {
	rep.set("uncore_waste_pct", "%", 100*r.UncoreWaste.WasteJ/r.UncoreWaste.TotalJ)
	rep.set("fleet.makespan_vs", "vs", r.MakespanS)
}

// timedGovernor times Invoke into *ns and counts it in *n.
type timedGovernor struct {
	governor.Governor
	ns, n *int64
}

func (g timedGovernor) Invoke(now time.Duration) time.Duration {
	s := nanotime()
	d := g.Governor.Invoke(now)
	*g.ns += nanotime() - s
	*g.n++
	return d
}

// timedReporter is a timedGovernor that also forwards the sensor-health
// report and the decision stream, the hooks the harness and a serve
// session look for on a governor.
type timedReporter struct{ timedGovernor }

func (g timedReporter) SensorHealth() resilient.Health {
	return g.Governor.(interface{ SensorHealth() resilient.Health }).SensorHealth()
}

// OnDecision forwards to the governor's decision stream; governors
// without one (UPS, DUF) never call the hook either way.
func (g timedReporter) OnDecision(fn func(core.Decision)) {
	if src, ok := g.Governor.(interface{ OnDecision(func(core.Decision)) }); ok {
		src.OnDecision(fn)
	}
}

// timeGovernor wraps g to time every Invoke, keeping the hooks g
// exposes, so a timed run attaches the same observers as an untimed one.
// Wrap a power-capped governor inside its cap: the harness looks
// through a PowerCapped for the hooks.
func timeGovernor(g governor.Governor, ns, n *int64) governor.Governor {
	t := timedGovernor{g, ns, n}
	if _, ok := g.(interface{ SensorHealth() resilient.Health }); ok {
		return timedReporter{t}
	}
	return t
}

func tracedFleet(p params) (*report, error) {
	rep := newReport()
	tr := newTracer()
	rep.tr = tr
	_, setupS, err := timedSetup(func() ([]cluster.NodeSpec, error) { return fleetSetup(p.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS

	// Members live on one shard each, so per-member counters need no
	// synchronisation.
	govNs := make([]int64, fleetMembers)
	invokes := make([]int64, fleetMembers)
	wrap := func(i int, g governor.Governor) governor.Governor {
		return timeGovernor(g, &govNs[i], &invokes[i])
	}
	runOne := func(name string, wrapped bool, opt cluster.Options) (cluster.Result, float64, time.Duration, bool) {
		w := wrap
		if !wrapped {
			w = nil
		}
		specs, err := fleetSpecs(p.seed, w)
		if err != nil {
			rep.fail("%v", err)
			return cluster.Result{}, 0, 0, false
		}
		s := nanotime()
		r, wall, cpu, ok := fleetRun(rep, specs, opt)
		tr.record(0, rep.attempted, name, s, nanotime())
		return r, wall, cpu, ok
	}
	full := fleetOptions(p.nproc)
	// A warm-up round fills the block pool, so every timed variant
	// below runs with warm arenas.
	if _, _, _, ok := runOne("fleet.warmup", false, full); !ok {
		return rep, nil
	}
	// The untraced, traced and observer-free variants alternate over
	// three rounds, so drift in host speed falls on each alike; each
	// reports its median round.
	bare := full
	bare.Waste, bare.Dist = false, false
	var untraced, traced cluster.Result
	var wallsU, wallsT, cpusU, cpusT, cpusBare []float64
	for r := 0; r < 3; r++ {
		u, wU, cU, ok1 := runOne("fleet.untraced", false, full)
		if r == 0 {
			for i := range govNs {
				govNs[i], invokes[i] = 0, 0
			}
		}
		t, wT, cT, ok2 := runOne("fleet.traced", true, full)
		_, _, cB, ok3 := runOne("fleet.no_observers", false, bare)
		if !(ok1 && ok2 && ok3) {
			return rep, nil
		}
		untraced, traced = u, t
		wallsU, wallsT = append(wallsU, wU), append(wallsT, wT)
		cpusU, cpusT, cpusBare = append(cpusU, cU.Seconds()), append(cpusT, cT.Seconds()), append(cpusBare, cB.Seconds())
	}
	one := full
	one.Shards = 1
	_, wall1, _, ok := runOne("fleet.one_shard", false, one)
	if !ok {
		return rep, nil
	}
	if fleetDigest(traced) != fleetDigest(untraced) {
		rep.fail("traced fleet differs from the untraced one")
	}
	wallU, wallT := median(wallsU), median(wallsT)
	cpuU, cpuT, cpuBare := median(cpusU)*1e9, median(cpusT)*1e9, median(cpusBare)*1e9

	var gNs, inv int64
	for i := range govNs {
		gNs += govNs[i]
		inv += invokes[i]
	}
	steps := nodeSteps(untraced)
	// The timed governors ran in all three traced rounds.
	rep.set("fleet.cluster.cpu_ns_per_node_step", "ns", cpuU/steps)
	rep.set("fleet.governor.ns_per_invoke", "ns", float64(gNs)/float64(inv))
	rep.set("fleet.governor.share", "ratio", float64(gNs)/3/cpuT)
	rep.set("fleet.observers.ns_per_node_step", "ns", (cpuU-cpuBare)/steps)
	rep.set("fleet.parallel.shard_speedup", "ratio", wall1/wallU)
	rep.set("fleet.node_steps", "count", steps)
	rep.set("fleet.invokes", "count", float64(inv)/3)
	rep.set("fleet.trace_overhead_frac", "ratio", (wallT-wallU)/wallU)

	rep.set("layer.tick_ns", "ns", cpuU/steps)
	rep.set("layer.ticks", "count", steps)
	rep.set("layer.governor.ns_per_invoke", "ns", float64(gNs)/float64(inv))
	rep.set("layer.governor.invokes", "count", float64(inv)/3)
	rep.set("layer.trace_overhead_frac", "ratio", (wallT-wallU)/wallU)
	rep.note("walls: untraced %.3fs, traced %.3fs, one shard %.3fs; cpu untraced %.3fs, no observers %.3fs",
		wallU, wallT, wall1, cpuU/1e9, cpuBare/1e9)
	fleetVirtual(rep, traced)
	rep.digest = fleetDigest(traced)
	return rep, nil
}
