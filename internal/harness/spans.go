package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
)

// Everything in this file is wired only when Options.Spans is set. A
// spans-disabled run adds no component, wraps no device and no task
// function, so the steady-state tick loop stays allocation-free and
// byte-identical to the seed (pinned by TestSteadyStateTickZeroAlloc
// and the PR 4 identity goldens).

// spanMSRDevice intercepts successful uncore-limit writes and records
// them as MSR-write spans; every other access passes straight through.
type spanMSRDevice struct {
	inner msr.Device
	tr    *spans.Tracer
	now   func() time.Duration
	cps   int // cores per socket, for cpu → socket
}

func (d *spanMSRDevice) Read(cpu int, reg uint32) (uint64, error) {
	return d.inner.Read(cpu, reg)
}

func (d *spanMSRDevice) Write(cpu int, reg uint32, val uint64) error {
	err := d.inner.Write(cpu, reg, val)
	if err == nil && reg == msr.UncoreRatioLimit {
		maxHz, _ := msr.DecodeUncoreLimit(val)
		d.tr.MSRWrite(d.now(), cpu/d.cps, maxHz/1e9)
	}
	return err
}

// spanSampler is the per-step ledger integrator: it reads each
// socket's uncore state the node just computed and attributes the
// step's uncore energy, plus the workload-phase bucket under
// sample-and-hold. It must be added to the engine after the node.
type spanSampler struct {
	tr      *spans.Tracer
	n       *node.Node
	src     interface{ PhaseName() string }
	maxGHz  float64
	sockets int

	lastPhase string

	// Optional metric mirrors (nil without Options.Obs).
	wasteBase, wasteUseful, wasteWaste, wasteTotal *obs.Gauge
	wasteFrac                                      *obs.Gauge
	spanCounts                                     []*obs.Gauge
}

// Step implements sim.Component.
func (ss *spanSampler) Step(now, dt time.Duration) {
	if name := ss.src.PhaseName(); name != ss.lastPhase {
		ss.tr.SetPhase(name)
		ss.lastPhase = name
	}
	n := ss.n
	for s := 0; s < ss.sockets; s++ {
		rel := n.UncoreFreqGHz(s) / ss.maxGHz
		ss.tr.AccumulateSocketActual(dt, rel, n.AttainedGBsSocket(s), n.UncorePowerW(s))
	}
	if ss.wasteTotal != nil {
		run := ss.tr.Ledger().Run()
		ss.wasteBase.Set(run.BaselineJ)
		ss.wasteUseful.Set(run.UsefulJ)
		ss.wasteWaste.Set(run.WasteJ)
		ss.wasteTotal.Set(run.TotalJ)
		ss.wasteFrac.Set(run.WasteFrac())
		for k, g := range ss.spanCounts {
			g.Set(float64(ss.tr.Count(spans.Kind(k))))
		}
	}
}

// installSpans wires the tracer into a run: power model, arena
// reservation, run span, MSR-write interception (caller swaps env.Dev),
// the decision hook, the ledger sampler and — when an observer is also
// attached — the magus_waste_* / magus_span_* families.
func installSpans(tr *spans.Tracer, n *node.Node, src demandSource, wname string, gov governor.Governor, o *obs.Observer, opt Options, horizon time.Duration) *spanSampler {
	cfg := n.Config()
	tr.SetPowerModel(spans.PowerModel{
		BaseWatts:          cfg.Uncore.BaseWatts,
		DynMaxWatts:        cfg.Uncore.DynMaxWatts,
		TrafficWattsPerGBs: cfg.Uncore.TrafficWattsPerGBs,
		PeakGBs:            cfg.BWPerSocketGBs,
		FloorFrac:          cfg.BWFloorFrac,
		RelMin:             cfg.UncoreMinGHz / cfg.UncoreMaxGHz,
	})
	// Arena sized from the run horizon: per tick one tick span, at
	// most one decision and Sockets MSR writes, plus the window spans
	// and the root.
	ticks := int(horizon/gov.Interval()) + 2
	tr.Reserve(ticks*(2+cfg.Sockets) + ticks/spans.DefaultWindowTicks + 16)
	tr.BeginRun(spans.Meta{
		System: cfg.Name, Workload: wname,
		Governor: gov.Name(), Seed: opt.Seed,
	})

	if p := Probe(gov); p.OnDecision != nil {
		p.OnDecision(func(d core.Decision) {
			tr.Decision(d.At, spans.DecisionAttrs{
				ThroughputGBs: d.ThroughputGBs,
				DerivGBs:      d.DerivGBs,
				RingFill:      d.RingFill,
				Trend:         int(d.Trend),
				HighFreq:      d.HighFreq,
				Warmup:        d.Warmup,
				Missed:        d.Missed,
				Acted:         d.Acted,
				PrevGHz:       d.PrevGHz,
				TargetGHz:     d.TargetGHz,
				Reason:        d.Reason,
				Health:        d.SensorHealth.String(),
			})
		})
	}

	ss := &spanSampler{tr: tr, n: n, src: src, maxGHz: cfg.UncoreMaxGHz, sockets: cfg.Sockets}
	if o != nil {
		reg := o.Registry()
		wasteVec := reg.GaugeVec("magus_waste_joules",
			"Uncore energy attribution by the spans ledger (cumulative joules).", "component")
		ss.wasteBase = wasteVec.With("baseline")
		ss.wasteUseful = wasteVec.With("useful")
		ss.wasteWaste = wasteVec.With("waste")
		ss.wasteTotal = wasteVec.With("total")
		ss.wasteFrac = reg.Gauge("magus_waste_fraction",
			"Wasted share of total uncore energy so far (0-1).")
		kindVec := reg.GaugeVec("magus_span_total",
			"Spans recorded by the decision-causality tracer, by kind.", "kind")
		for k := spans.KindRun; k <= spans.KindMSRWrite; k++ {
			ss.spanCounts = append(ss.spanCounts, kindVec.With(k.String()))
		}
	}
	return ss
}

// tickFn wraps a governor's Invoke so every scheduled invocation opens
// a tick span before the MDFS cycle runs inside it.
func tickFn(tr *spans.Tracer, inner func(time.Duration) time.Duration) func(time.Duration) time.Duration {
	return func(now time.Duration) time.Duration {
		tr.BeginTick(now)
		return inner(now)
	}
}
