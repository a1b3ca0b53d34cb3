package main

// paper-sweep: the Fig. 4a/4b/4c grid — each system × its catalog apps
// × default/MAGUS/UPS × sweepSlices seeds — run through
// harness.RunBatch at jobs = nproc with no traces or observers. It is
// the cell the whole evaluation multiplies: almost all of its time is
// in sim, workload and node, and it never enters cluster, serve,
// checkpoint, flight or spans.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/workload"
)

// sweepSlices is the number of seeds per cell. Slice k runs at
// seed + k*7919, the stride harness.RepeatSpecs uses, so the reduced
// grid equals experiments.Figure4 with Repeats = sweepSlices.
const sweepSlices = 3

// tickSampleEvery is the traced run's sampling period: component
// wrappers read the clock on one tick in this many, so clock reads do
// not dominate a tick that costs a few hundred nanoseconds.
const tickSampleEvery = 8

// Invocation cost models of the paper's governors per system, as the
// experiments package calibrates them against Table 2.
const (
	magusExtraWattsICX = 5.0
	magusExtraWattsSPR = 8.5
	upsExtraWattsICX   = 14.0
	upsExtraWattsSPR   = 32.0
)

func magusFactory(system string) harness.GovernorFactory {
	mc := core.DefaultConfig()
	mc.ExtraWatts = magusExtraWattsICX
	if system == "Intel+Max1550" {
		mc.ExtraWatts = magusExtraWattsSPR
	}
	return func() governor.Governor { return core.New(mc) }
}

func upsFactory(system string) harness.GovernorFactory {
	uc := governor.DefaultUPSConfig()
	uc.ExtraWatts = upsExtraWattsICX
	if system == "Intel+Max1550" {
		uc.ExtraWatts = upsExtraWattsSPR
		uc.IPCDegrade = 0.26
	}
	return func() governor.Governor { return governor.NewUPS(uc) }
}

func defaultFactory() governor.Governor { return governor.NewDefault() }

// sweepGovs is the per-app governor order of the grid.
var sweepGovs = []string{"default", "magus", "ups"}

type sweepCell struct {
	cfg     node.Config
	prog    *workload.Program
	gov     string // one of sweepGovs
	factory harness.GovernorFactory
	seed    int64
}

func (c sweepCell) spec() harness.RunSpec {
	return harness.RunSpec{Cfg: c.cfg, Prog: c.prog, Factory: c.factory, Opt: harness.Options{Seed: c.seed}}
}

// sweepGrid builds the grid: one slice of cells per seed.
func sweepGrid(seed int64) ([][]sweepCell, error) {
	systems := []struct {
		cfg  node.Config
		apps []string
	}{
		{node.IntelA100(), workload.SingleGPU()},
		{node.IntelMax1550(), workload.AltisSYCL()},
		{node.Intel4A100(), workload.MultiGPU()},
	}
	grid := make([][]sweepCell, sweepSlices)
	for k := range grid {
		s := seed + int64(k)*7919
		for _, sys := range systems {
			for _, app := range sys.apps {
				prog, ok := workload.ByName(app)
				if !ok {
					return nil, fmt.Errorf("unknown workload %q", app)
				}
				facs := []harness.GovernorFactory{defaultFactory, magusFactory(sys.cfg.Name), upsFactory(sys.cfg.Name)}
				for i, g := range sweepGovs {
					grid[k] = append(grid[k], sweepCell{sys.cfg, prog, g, facs[i], s})
				}
			}
		}
	}
	return grid, nil
}

// timedSetup times a workload's set-up: build the inputs and wire every
// cell, member or session once from the public constructors, without
// running it. That is the pre-flight that rejects a bad input before any
// simulation, and the place work moved out of the timed loop would
// show. A set-up takes milliseconds, so each of setupSamples samples
// repeats build until setupSample has passed and takes the mean;
// setup_s is the median sample. Every build starts from a collected
// heap, so none pays for the garbage of the one before. release, when
// not nil, frees every result but the one returned, outside the timed
// region.
func timedSetup[T any](build func() (T, error), release func(T) error) (T, float64, error) {
	var out T
	have := false
	drop := func() error {
		if have && release != nil {
			return release(out)
		}
		return nil
	}
	var ds []float64
	for i := 0; i < setupSamples; i++ {
		var spent time.Duration
		n := 0
		for spent < setupSample {
			if err := drop(); err != nil {
				return out, 0, err
			}
			runtime.GC()
			t0 := time.Now()
			v, err := build()
			spent += time.Since(t0)
			n++
			if err != nil {
				have = false
				return out, 0, err
			}
			out, have = v, true
		}
		ds = append(ds, spent.Seconds()/float64(n))
	}
	return out, median(ds), nil
}

const (
	setupSamples = 7
	setupSample  = 200 * time.Millisecond
)

// sweepSetup builds the grid and wires every cell.
func sweepSetup(seed int64) ([][]sweepCell, error) {
	grid, err := sweepGrid(seed)
	if err != nil {
		return nil, err
	}
	for _, slice := range grid {
		for _, c := range slice {
			if _, err := harness.NewSteppable(c.cfg, c.prog, c.factory(), harness.Options{Seed: c.seed}); err != nil {
				return nil, err
			}
		}
	}
	return grid, nil
}

func runSweep(p params) (*report, error) {
	rep := newReport()
	grid, setupS, err := timedSetup(func() ([][]sweepCell, error) { return sweepSetup(p.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS
	results := make([][]harness.Result, sweepSlices)
	start := time.Now()
	for r := 0; r < sweepSlices || time.Since(start).Seconds() < p.seconds; r++ {
		k := r % sweepSlices
		specs := make([]harness.RunSpec, len(grid[k]))
		for i, c := range grid[k] {
			specs[i] = c.spec()
		}
		rep.attempted += len(specs)
		// Every timed round starts from a collected heap, so no round
		// pays for the garbage of the one before and peak memory does
		// not depend on where collections happen to fall.
		runtime.GC()
		t0 := time.Now()
		res, err := harness.RunBatch(specs, p.nproc)
		wall := time.Since(t0).Seconds()
		if err != nil {
			rep.failed += len(specs)
			rep.note("FAIL round %d: %v", r, err)
			continue
		}
		var simS float64
		for _, x := range res {
			simS += x.RuntimeS
		}
		rep.simRates = append(rep.simRates, simS/wall)
		if results[k] == nil {
			results[k] = res
		} else if resultsDigest(res...) != resultsDigest(results[k]...) {
			rep.fail("round %d: slice %d differs from its first run", r, k)
		}
	}
	for _, r := range results {
		if r == nil {
			return rep, nil // a slice never ran; main reports the failure
		}
	}
	rep.setEndToEnd()
	sweepVirtual(rep, grid, results)
	rep.digest = resultsDigest(flatten(results)...)
	return rep, nil
}

func flatten(rs [][]harness.Result) []harness.Result {
	var out []harness.Result
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}

// sweepVirtual reports the paper's Fig. 4 figures: MAGUS-vs-default
// energy saving averaged over the (system, app) pairs and the worst
// performance loss, with each cell's seeds trim-averaged as the paper
// does.
func sweepVirtual(rep *report, grid [][]sweepCell, results [][]harness.Result) {
	var savings []float64
	worst := math.Inf(-1)
	for i := 0; i < len(grid[0]); i += len(sweepGovs) {
		reduce := func(g int) harness.Result {
			var rs []harness.Result
			for k := range results {
				rs = append(rs, results[k][i+g])
			}
			return harness.Reduce(rs)
		}
		cmp := harness.Compare(reduce(0), reduce(1))
		savings = append(savings, cmp.EnergySavingPct)
		worst = math.Max(worst, cmp.PerfLossPct)
	}
	rep.set("energy_saving_pct", "%", sum(savings)/float64(len(savings)))
	rep.set("perf_loss_pct", "%", worst)
}

// resultsDigest hashes the simulated outputs bit-exactly.
func resultsDigest(rs ...harness.Result) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rs {
		fmt.Fprintf(h, "%s|%s|%s|", r.System, r.Workload, r.Governor)
		for _, f := range []float64{r.RuntimeS, r.AvgCPUPowerW, r.PkgEnergyJ, r.DramEnergyJ, r.GPUEnergyJ} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
		fmt.Fprintf(h, "%d\n", r.FaultsInjected.Total())
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// cellTimes accumulates the traced decomposition of hand-wired cells.
type cellTimes struct {
	setupNs, workloadNs, nodeNs, runNs int64
	ticks, sampled                     int64
	govNs, invokes                     map[string]int64
	msrWrites                          int64
}

func newCellTimes() *cellTimes {
	return &cellTimes{govNs: map[string]int64{}, invokes: map[string]int64{}}
}

// countingDev counts MSR writes on their way to the node.
type countingDev struct {
	msr.Device
	writes *int64
}

func (d countingDev) Write(cpu int, reg uint32, val uint64) error {
	*d.writes++
	return d.Device.Write(cpu, reg, val)
}

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// wireCell builds one cell from the public constructors
// harness.NewSteppable uses, with timing wrappers on the runner
// component, the node component and the governor task, and runs it to
// completion. Its Result is bit-equal to harness.Run's.
func wireCell(c sweepCell, ct *cellTimes, tr *tracer, op int) (harness.Result, error) {
	t0 := nanotime()
	var cellSpan, runSpan int
	if tr != nil {
		cellSpan = tr.open(0, op, "sweep.cell", t0)
	}
	eng := sim.NewEngine(0)
	n := node.New(c.cfg)
	runner := workload.NewRunner(c.prog, c.cfg.SystemBWGBs(), c.seed)
	runner.SetAttained(n.AttainedGBs)
	env, err := harness.BuildEnv(n)
	if err != nil {
		return harness.Result{}, err
	}
	env.Dev = countingDev{env.Dev, &ct.msrWrites}
	gov := c.factory()
	if err := gov.Attach(env); err != nil {
		return harness.Result{}, err
	}
	horizon := c.prog.NominalDuration()*4 + 10*time.Second

	var tick int64
	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		tick++
		if tick%tickSampleEvery != 0 {
			runner.Step(now, dt)
			n.SetDemand(runner.Demand())
			return
		}
		s := nanotime()
		runner.Step(now, dt)
		n.SetDemand(runner.Demand())
		ct.workloadNs += nanotime() - s
		ct.sampled++
	}))
	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		if tick%tickSampleEvery != 0 {
			n.Step(now, dt)
			return
		}
		s := nanotime()
		n.Step(now, dt)
		ct.nodeNs += nanotime() - s
	}))
	eng.AddTask(&sim.Task{
		Name:     gov.Name(),
		Interval: gov.Interval(),
		Fn: func(now time.Duration) time.Duration {
			s := nanotime()
			d := gov.Invoke(now)
			e := nanotime()
			ct.govNs[c.gov] += e - s
			ct.invokes[c.gov]++
			if tr != nil {
				tr.record(runSpan, op, "governor."+c.gov+".invoke", s, e)
			}
			return d
		},
	}, 0)
	t1 := nanotime()
	ct.setupNs += t1 - t0
	if tr != nil {
		tr.record(cellSpan, op, "harness.setup", t0, t1)
		runSpan = tr.open(cellSpan, op, "sim.run", t1)
	}
	if _, err := eng.RunUntil(runner.Done, horizon); err != nil {
		return harness.Result{}, fmt.Errorf("%s/%s/%s: %w", c.cfg.Name, c.prog.Name, c.gov, err)
	}
	t2 := nanotime()
	ct.runNs += t2 - t1
	ct.ticks += tick
	if tr != nil {
		tr.close(runSpan, t2)
		tr.close(cellSpan, t2)
	}

	runtime := runner.Elapsed().Seconds()
	pkgJ, drmJ, gpuJ := n.EnergyJ()
	res := harness.Result{
		System: c.cfg.Name, Workload: c.prog.Name, Governor: gov.Name(),
		RuntimeS: runtime, PkgEnergyJ: pkgJ, DramEnergyJ: drmJ, GPUEnergyJ: gpuJ,
	}
	if runtime > 0 {
		res.AvgCPUPowerW = (pkgJ + drmJ) / runtime
	}
	return res, nil
}

// clockPairNs is the cost of timing an empty region, which every
// sampled component time includes and the per-tick figures subtract.
func clockPairNs() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		s := nanotime()
		xs[i] = float64(nanotime() - s)
	}
	return median(xs)
}

// dispatchNsPerTick measures the engine's own per-tick cost on a null
// fixture of the same shape as a cell: two components and one task at
// the given interval, bodies empty, run for ticks steps.
func dispatchNsPerTick(ticks int64, interval time.Duration) float64 {
	eng := sim.NewEngine(0)
	noop := sim.ComponentFunc(func(now, dt time.Duration) {})
	eng.AddComponent(noop)
	eng.AddComponent(noop)
	eng.AddTask(&sim.Task{Name: "null", Interval: interval, Fn: func(time.Duration) time.Duration { return 0 }}, 0)
	var n int64
	t0 := nanotime()
	eng.RunUntil(func() bool { n++; return n > ticks }, time.Duration(ticks+1)*eng.Step())
	return float64(nanotime()-t0) / float64(ticks)
}

func tracedSweep(p params) (*report, error) {
	rep := newReport()
	tr := newTracer()
	rep.tr = tr
	grid, setupS, err := timedSetup(func() ([][]sweepCell, error) { return sweepSetup(p.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS

	// Traced: every slice hand-wired, so the digest covers the same
	// outputs as the untraced run. Slice 0 also runs each cell through
	// harness.Run right before its wired twin: the untraced serial
	// whole the layer times must add up to, measured cell by cell beside
	// them so drift in host speed falls on both alike.
	base := make([]harness.Result, len(grid[0]))
	var wholeNs int64
	results := make([][]harness.Result, sweepSlices)
	var slice0 *cellTimes
	all := newCellTimes()
	op := 0
	for k := range grid {
		ct := newCellTimes()
		for i, c := range grid[k] {
			if k == 0 {
				t0 := nanotime()
				r, err := harness.Run(c.cfg, c.prog, c.factory(), harness.Options{Seed: c.seed})
				wholeNs += nanotime() - t0
				if err != nil {
					return nil, err
				}
				base[i] = r
			}
			op++
			rep.attempted++
			r, err := wireCell(c, ct, tr, op)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			results[k] = append(results[k], r)
		}
		if k == 0 {
			slice0 = ct
		}
		all.add(ct)
	}
	if rep.failed > 0 {
		return rep, nil
	}
	for i := range base {
		if resultsDigest(base[i]) != resultsDigest(results[0][i]) {
			rep.fail("hand-wired cell %d (%s/%s/%s) differs from harness.Run", i, base[i].System, base[i].Workload, base[i].Governor)
		}
	}

	// Parallel efficiency of the batch pool on slice 0.
	specs := make([]harness.RunSpec, len(grid[0]))
	for i, c := range grid[0] {
		specs[i] = c.spec()
	}
	t0 := time.Now()
	if _, err := harness.RunBatch(specs, 1); err != nil {
		return nil, err
	}
	t1 := time.Since(t0).Seconds()
	t0, c0 := time.Now(), cpuNow()
	if _, err := harness.RunBatch(specs, p.nproc); err != nil {
		return nil, err
	}
	tn, cpuN := time.Since(t0).Seconds(), cpuNow()-c0

	ticks := float64(slice0.ticks)
	clock := clockPairNs()
	perTick := func(sampledNs int64) float64 {
		return float64(sampledNs)/float64(slice0.sampled) - clock
	}
	dispatch := dispatchNsPerTick(slice0.ticks, 300*time.Millisecond)
	var govNs, invokes float64
	for g, ns := range slice0.govNs {
		govNs += float64(ns)
		invokes += float64(slice0.invokes[g])
	}
	layers := float64(slice0.setupNs) + ticks*(dispatch+perTick(slice0.workloadNs)+perTick(slice0.nodeNs)) + govNs
	tracedNs := float64(slice0.setupNs + slice0.runNs)

	var simS float64
	for _, r := range flatten(results) {
		simS += r.RuntimeS
	}
	rep.set("sweep.sim.dispatch_ns_per_tick", "ns", dispatch)
	rep.set("sweep.workload.ns_per_tick", "ns", perTick(slice0.workloadNs))
	rep.set("sweep.node.ns_per_tick", "ns", perTick(slice0.nodeNs))
	for _, g := range sweepGovs {
		rep.set("sweep.governor."+g+".ns_per_invoke", "ns", float64(all.govNs[g])/float64(all.invokes[g]))
	}
	var allInv int64
	for _, v := range all.invokes {
		allInv += v
	}
	rep.set("sweep.governor.invokes_per_sim_s", "1/vs", float64(allInv)/simS)
	rep.set("sweep.harness.setup_us_per_cell", "us", float64(all.setupNs)/1e3/float64(len(flatten(results))))
	rep.set("sweep.parallel.efficiency", "ratio", t1/(float64(p.nproc)*tn))
	rep.set("sweep.ticks", "count", float64(all.ticks))
	rep.set("sweep.msr_writes", "count", float64(all.msrWrites))
	rep.set("sweep.unaccounted_frac", "ratio", (float64(wholeNs)-layers)/float64(wholeNs))
	rep.set("sweep.trace_overhead_frac", "ratio", (tracedNs-float64(wholeNs))/float64(wholeNs))

	rep.set("sweep.serial_ns_per_tick", "ns", float64(wholeNs)/ticks)

	rep.set("layer.tick_ns", "ns", float64(cpuN.Nanoseconds())/ticks)
	rep.set("layer.ticks", "count", ticks)
	var allGov int64
	for _, v := range all.govNs {
		allGov += v
	}
	rep.set("layer.governor.ns_per_invoke", "ns", float64(allGov)/float64(allInv))
	rep.set("layer.governor.invokes", "count", float64(allInv))
	rep.set("layer.trace_overhead_frac", "ratio", (tracedNs-float64(wholeNs))/float64(wholeNs))
	rep.note("clock read pair %.1f ns (subtracted from sampled times); slice 0: untraced serial %.3fs, traced %.3fs, layer sum %.3fs; RunBatch jobs=1 %.3fs, jobs=%d %.3fs",
		clock, float64(wholeNs)/1e9, tracedNs/1e9, layers/1e9, t1, p.nproc, tn)
	sweepVirtual(rep, grid, results)
	rep.digest = resultsDigest(flatten(results)...)
	return rep, nil
}

func (c *cellTimes) add(o *cellTimes) {
	c.setupNs += o.setupNs
	c.workloadNs += o.workloadNs
	c.nodeNs += o.nodeNs
	c.runNs += o.runNs
	c.ticks += o.ticks
	c.sampled += o.sampled
	c.msrWrites += o.msrWrites
	for k, v := range o.govNs {
		c.govNs[k] += v
	}
	for k, v := range o.invokes {
		c.invokes[k] += v
	}
}
