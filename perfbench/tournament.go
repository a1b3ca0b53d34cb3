package main

// tournament: an experiments.Tournament grid — several apps × {no
// fault, one preset} × the default MAGUS bracket with the default,
// UPS and DUF baselines. Near variants share long prefixes and far
// variants diverge early, so work is both shared and not shared. It is
// the only workload that exercises checkpoint capture/encode/resume and
// core.Replay.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/spear-repro/magus/internal/checkpoint"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/experiments"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

var (
	tournamentApps   = []string{"bfs", "gemm", "nw", "srad", "where", "fdtd2d", "sort", "particlefilter_float"}
	tournamentFaults = []string{"", "pcm-flaky"}
)

// checkpointEvery is the fork planner's capture cadence in decision
// cycles (experiments.checkpointEvery).
const checkpointEvery = 8

func tournamentOptions(seed int64, nproc int) experiments.TournamentOptions {
	return experiments.TournamentOptions{
		Systems:      []string{"Intel+A100"},
		Apps:         tournamentApps,
		FaultPresets: tournamentFaults,
		Seed:         seed,
		Jobs:         nproc,
	}
}

// tournamentSetup builds the options and wires the base MAGUS run of
// every (app, fault) cell of the grid.
func tournamentSetup(seed int64, nproc int) (experiments.TournamentOptions, error) {
	opt := tournamentOptions(seed, nproc)
	cfg := node.IntelA100()
	mc := magusTournamentConfig()
	for _, app := range opt.Apps {
		prog, ok := workload.ByName(app)
		if !ok {
			return opt, fmt.Errorf("unknown workload %q", app)
		}
		for _, f := range opt.FaultPresets {
			hopt := harness.Options{Seed: seed, Spans: spans.New(mc.Window)}
			if f != "" {
				plan, ok := faults.Preset(f)
				if !ok {
					return opt, fmt.Errorf("unknown fault preset %q", f)
				}
				plan.Seed = seed
				hopt.Faults = plan
			}
			if _, err := harness.NewSteppable(cfg, prog, core.New(mc), hopt); err != nil {
				return opt, err
			}
		}
	}
	return opt, nil
}

func tournamentDigest(r experiments.TournamentResult) string {
	h := sha256.New()
	for _, c := range r.Cells {
		js, _ := json.Marshal(c.Run)
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s\n", c.System, c.App, c.Fault, c.Entry, js, resultsDigest(c.Result))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:32]
}

func tournamentSimS(r experiments.TournamentResult) float64 {
	var s float64
	for _, c := range r.Cells {
		s += c.Result.RuntimeS
	}
	return s
}

// checkScratch re-runs one (app, fault) group of the grid from scratch
// and compares it with the forked grid's cells of that group.
func checkScratch(rep *report, p params, forked experiments.TournamentResult) {
	rep.attempted++
	g := int(uint64(p.seed) % uint64(len(tournamentApps)*len(tournamentFaults)))
	app, fault := tournamentApps[g/len(tournamentFaults)], tournamentFaults[g%len(tournamentFaults)]
	opt := tournamentOptions(p.seed, p.nproc)
	opt.Apps, opt.FaultPresets, opt.Scratch = []string{app}, []string{fault}, true
	scratch, err := experiments.Tournament(opt)
	if err != nil {
		rep.fail("scratch tournament: %v", err)
		return
	}
	var want experiments.TournamentResult
	for _, c := range forked.Cells {
		if c.App == app && c.Fault == fault {
			c.Forked, c.ForkedAtS, c.SharedPrefix = false, 0, false
			want.Cells = append(want.Cells, c)
		}
	}
	if tournamentDigest(scratch) != tournamentDigest(want) {
		rep.fail("forked cells of %s/%q differ from scratch", app, fault)
	}
}

func tournamentCounts(rep *report, r experiments.TournamentResult) {
	var forked, reused int
	for _, c := range r.Cells {
		if c.Forked {
			forked++
		}
		if c.SharedPrefix {
			reused++
		}
	}
	rep.set("tournament.shared_virt_s", "vs", r.SharedSeconds())
	rep.set("tournament.forked_cells", "count", float64(forked))
	rep.set("tournament.reused_cells", "count", float64(reused))
}

func runTournament(p params) (*report, error) {
	rep := newReport()
	_, setupS, err := timedSetup(func() (experiments.TournamentOptions, error) {
		return tournamentSetup(p.seed, p.nproc)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS
	var first experiments.TournamentResult
	start := time.Now()
	for r := 0; r < 3 || time.Since(start).Seconds() < p.seconds; r++ {
		rep.attempted++
		runtime.GC()
		t0 := time.Now()
		res, err := experiments.Tournament(tournamentOptions(p.seed, p.nproc))
		wall := time.Since(t0).Seconds()
		if err != nil {
			rep.fail("round %d: %v", r, err)
			continue
		}
		rep.simRates = append(rep.simRates, tournamentSimS(res)/wall)
		if first.Cells == nil {
			first = res
		} else if tournamentDigest(res) != tournamentDigest(first) {
			rep.fail("round %d differs from the first", r)
		}
	}
	if first.Cells == nil {
		return rep, nil
	}
	checkScratch(rep, p, first)
	rep.setEndToEnd()
	tournamentCounts(rep, first)
	rep.digest = tournamentDigest(first)
	return rep, nil
}

func tracedTournament(p params) (*report, error) {
	rep := newReport()
	tr := newTracer()
	rep.tr = tr
	_, setupS, err := timedSetup(func() (experiments.TournamentOptions, error) {
		return tournamentSetup(p.seed, p.nproc)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setupS = setupS

	// The forked grid, alternately untraced and inside a span, until
	// the run's time is up; then the same grid once from scratch, for
	// the sharing ratio and the per-tick cost.
	run := func(name string, scratch bool, t *tracer) (experiments.TournamentResult, float64, time.Duration, error) {
		opt := tournamentOptions(p.seed, p.nproc)
		opt.Scratch = scratch
		rep.attempted++
		runtime.GC()
		c0, s := cpuNow(), nanotime()
		res, err := experiments.Tournament(opt)
		e, cpu := nanotime(), cpuNow()-c0
		if t != nil {
			t.record(0, rep.attempted, name, s, e)
		}
		return res, float64(e-s) / 1e9, cpu, err
	}
	if _, _, _, err := run("tournament.warmup", false, nil); err != nil {
		return nil, err
	}
	var forked experiments.TournamentResult
	var wallsU, wallsT, cpusU []float64
	start := time.Now()
	for r := 0; r < 3 || time.Since(start).Seconds() < p.seconds/2; r++ {
		_, w, cpu, err := run("tournament.untraced", false, nil)
		if err != nil {
			return nil, err
		}
		wallsU, cpusU = append(wallsU, w), append(cpusU, float64(cpu.Nanoseconds()))
		if forked, w, _, err = run("tournament.forked", false, tr); err != nil {
			return nil, err
		}
		wallsT = append(wallsT, w)
	}
	wallU, wallT := median(wallsU), median(wallsT)
	scratch, wallS, cpuS, err := run("tournament.scratch", true, tr)
	if err != nil {
		return nil, err
	}
	strip := forked
	strip.Cells = append([]experiments.TournamentCell(nil), forked.Cells...)
	for i := range strip.Cells {
		strip.Cells[i].Forked, strip.Cells[i].ForkedAtS, strip.Cells[i].SharedPrefix = false, 0, false
	}
	if tournamentDigest(strip) != tournamentDigest(scratch) {
		rep.fail("forked grid differs from scratch")
	}

	// Checkpoint layer on the base cell at the planner's cadence.
	cfg := node.IntelA100()
	prog, _ := workload.ByName(tournamentApps[0])
	ck, err := checkpointCosts(cfg, prog, p.seed, tr)
	if err != nil {
		return nil, err
	}
	rep.set("tournament.checkpoint.capture_us", "us", median(ck.capture))
	rep.set("tournament.checkpoint.encode_us", "us", median(ck.encode))
	rep.set("tournament.checkpoint.decode_us", "us", median(ck.decode))
	rep.set("tournament.checkpoint.bytes", "bytes", median(ck.bytes))
	rep.set("tournament.harness.resume_us", "us", median(ck.resume))
	tournamentCounts(rep, forked)
	rep.set("tournament.scratch_ratio", "ratio", wallS/wallT)
	rep.set("tournament.trace_overhead_frac", "ratio", (wallT-wallU)/wallU)

	// Governor cost: every base MAGUS cell once more with a timed
	// governor (a wrapped governor cannot be checkpointed, so this run
	// is separate from the fork planner's).
	var govNs, invokes int64
	for _, app := range tournamentApps {
		prog, _ := workload.ByName(app)
		gov := timeGovernor(core.New(magusTournamentConfig()), &govNs, &invokes)
		if _, err := harness.Run(cfg, prog, gov, harness.Options{Seed: p.seed}); err != nil {
			return nil, err
		}
	}
	ticks := tournamentSimS(scratch) * 1000
	rep.set("tournament.scratch.cpu_ns_per_tick", "ns", float64(cpuS.Nanoseconds())/ticks)
	rep.set("layer.tick_ns", "ns", median(cpusU)/ticks)
	rep.set("layer.ticks", "count", ticks)
	rep.set("layer.governor.ns_per_invoke", "ns", float64(govNs)/float64(invokes))
	rep.set("layer.governor.invokes", "count", float64(invokes))
	rep.set("layer.trace_overhead_frac", "ratio", (wallT-wallU)/wallU)
	rep.note("walls: forked %.3fs (untraced %.3fs), scratch %.3fs; %d checkpoints", wallT, wallU, wallS, len(ck.capture))
	rep.digest = tournamentDigest(forked)
	return rep, nil
}

// magusTournamentConfig is the base MAGUS configuration the
// tournament uses on Intel+A100.
func magusTournamentConfig() core.Config {
	mc := core.DefaultConfig()
	mc.ExtraWatts = magusExtraWattsICX
	return mc
}

type ckCosts struct {
	capture, encode, decode, resume, bytes []float64
}

// checkpointCosts drives a base MAGUS run one invocation at a time and,
// every checkpointEvery cycles, captures, encodes, decodes and resumes
// a checkpoint, timing each call.
func checkpointCosts(cfg node.Config, prog *workload.Program, seed int64, tr *tracer) (ckCosts, error) {
	var c ckCosts
	mc := magusTournamentConfig()
	st, err := harness.NewSteppable(cfg, prog, core.New(mc), harness.Options{Seed: seed, Spans: spans.New(mc.Window)})
	if err != nil {
		return c, err
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for cycle := 0; ; cycle++ {
		if d := st.NextInvocation() - st.Now(); d > 0 {
			done, err := st.Advance(d)
			if err != nil {
				return c, err
			}
			if done {
				return c, nil
			}
		}
		if cycle > 0 && cycle%checkpointEvery == 0 {
			t0 := nanotime()
			data, err := st.Checkpoint()
			t1 := nanotime()
			if err != nil {
				return c, err
			}
			blob, err := checkpoint.Encode(data)
			t2 := nanotime()
			if err != nil {
				return c, err
			}
			back, err := checkpoint.Decode(blob)
			t3 := nanotime()
			if err != nil {
				return c, err
			}
			if _, err := harness.Resume(back, harness.ResumeOptions{Gov: core.New(mc), Spans: spans.New(mc.Window)}); err != nil {
				return c, err
			}
			t4 := nanotime()
			parent := tr.record(0, cycle, "tournament.checkpoint", t0, t4)
			tr.record(parent, cycle, "checkpoint.capture", t0, t1)
			tr.record(parent, cycle, "checkpoint.encode", t1, t2)
			tr.record(parent, cycle, "checkpoint.decode", t2, t3)
			tr.record(parent, cycle, "harness.resume", t3, t4)
			c.capture = append(c.capture, us(t1-t0))
			c.encode = append(c.encode, us(t2-t1))
			c.decode = append(c.decode, us(t3-t2))
			c.resume = append(c.resume, us(t4-t3))
			c.bytes = append(c.bytes, float64(len(blob)))
		}
		if done, err := st.Advance(time.Nanosecond); err != nil || done {
			return c, err
		}
	}
}
