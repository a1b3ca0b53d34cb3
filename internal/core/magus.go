// Package core implements MAGUS, the paper's primary contribution: a
// model-free, lightweight, user-transparent runtime that scales the CPU
// uncore frequency on heterogeneous CPU–GPU nodes using a single
// hardware signal — system memory throughput — and the concept of
// *memory dynamics* (§3):
//
//   - Algorithm 1 (memory-throughput trend prediction): the first
//     derivative of the recent throughput history signals imminent
//     sharp rises (scale the uncore to max) or falls (scale to min).
//   - Algorithm 2 (high-frequency detection): the rate of recent tuning
//     decisions; above a threshold the workload is fluctuating too fast
//     for scaling to help, so the uncore is pinned at max.
//   - Algorithm 3 (MDFS): the 0.2 s decision loop combining both, with
//     a 10-cycle warm-up during which throughput history accumulates
//     and no tuning happens.
//
// Interpretation notes (the paper's pseudocode is underspecified in
// three places; each choice is documented in DESIGN.md):
//
//   - Units: the paper's thresholds (inc 200 / dec 500) carry no units;
//     this reproduction uses GB/s of throughput change per monitoring
//     interval and defaults to 6/15 — the same 2:5 asymmetry (falls
//     must be steeper than rises), rescaled above the simulated node's
//     measurement-noise floor.
//   - Derivative span: Algorithm 1 writes (ls[n]-ls[0])/L over the full
//     window; taken literally every transition stays "sharp" for ten
//     cycles and the event log saturates into a permanent high-
//     frequency pin. We expose the span as DerivLen (default 3
//     intervals ≈ 1 s) — long enough that a transition which happened
//     during the warm-up blackout is still caught afterwards.
//   - Tune events: uncore_tune_ls records "whether a potential uncore
//     frequency scaling event should occur". We log 1 on a trend
//     *edge* — a non-flat prediction that differs from the previous
//     cycle's prediction — not on every repeated up/up or down/down
//     trend, which cannot scale anything further. Edges are logged
//     regardless of high-frequency overrides, as §3.2 requires, so
//     the detector stays engaged for as long as a flutter lasts.
package core

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/ring"
)

// Config holds MAGUS's tuning knobs (§3.3).
type Config struct {
	// IncThresholdGBs triggers an uncore increase when the throughput
	// derivative exceeds it (GB/s per monitoring interval).
	IncThresholdGBs float64
	// DecThresholdGBs (a positive magnitude) triggers a decrease when
	// the derivative falls below its negation.
	DecThresholdGBs float64
	// HighFreqThreshold is the tuning-event rate above which the
	// workload counts as high-frequency and the uncore pins at max.
	HighFreqThreshold float64

	// Window is the FIFO history length for both mem_throughput_ls and
	// uncore_tune_ls (10 in the paper).
	Window int
	// DerivLen is how many intervals back the first derivative spans.
	DerivLen int

	// Interval is the sleep between decision cycles; InvocationTime is
	// the cost of one cycle (one PCM read + the algorithms ≈ 0.1 s,
	// §6.5). Effective decision period = sum (0.3 s).
	Interval       time.Duration
	InvocationTime time.Duration

	// WarmupCycles is the number of initial monitoring cycles during
	// which MAGUS only collects history (10 cycles = 2.0 s, §3.3).
	WarmupCycles int
	// WarmupAtMax selects the uncore limit during warm-up. The paper is
	// ambiguous: §3.3 says the frequency starts at maximum, while the
	// Table 1 discussion attributes missed early bursts to MAGUS "not
	// yet scaling" on nodes that idle at the minimum (§4). The default
	// (false) follows the Table 1 reading: warm-up runs at the idle
	// minimum and MDFS's first decision raises the limit to max.
	WarmupAtMax bool

	// Overhead model: cores busy during an invocation and extra watts
	// while busy. MAGUS's single PCM read is cheap (§6.5).
	BusyCores  float64
	ExtraWatts float64

	// DisableHighFreq switches off the Algorithm 2 override (tune
	// events are still logged). Ablation-study switch only; the
	// default runtime always runs with the detector on.
	DisableHighFreq bool

	// Resilience tunes the sensor fault-handling layer (retry budget,
	// read timeout, loss threshold). The zero value selects
	// resilient.DefaultConfig, which is a pure pass-through on a
	// healthy sensor.
	Resilience resilient.Config
}

// DefaultConfig returns the recommended defaults (§3.3, rescaled).
func DefaultConfig() Config {
	return Config{
		IncThresholdGBs:   6,
		DecThresholdGBs:   15,
		HighFreqThreshold: 0.4,
		Window:            10,
		DerivLen:          3,
		Interval:          200 * time.Millisecond,
		InvocationTime:    100 * time.Millisecond,
		WarmupCycles:      10,
		BusyCores:         0.3,
		ExtraWatts:        0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.IncThresholdGBs <= 0 || c.DecThresholdGBs <= 0:
		return fmt.Errorf("magus: non-positive thresholds %v/%v", c.IncThresholdGBs, c.DecThresholdGBs)
	case c.HighFreqThreshold <= 0 || c.HighFreqThreshold > 1:
		return fmt.Errorf("magus: high-frequency threshold %v outside (0,1]", c.HighFreqThreshold)
	case c.Window < 2:
		return fmt.Errorf("magus: window %d too small", c.Window)
	case c.DerivLen < 1 || c.DerivLen >= c.Window:
		return fmt.Errorf("magus: derivative length %d outside [1,window)", c.DerivLen)
	case c.Interval <= 0 || c.InvocationTime <= 0:
		return fmt.Errorf("magus: non-positive timing %v/%v", c.Interval, c.InvocationTime)
	case c.WarmupCycles <= 0:
		return fmt.Errorf("magus: non-positive warmup %d", c.WarmupCycles)
	case c.BusyCores < 0 || c.ExtraWatts < 0:
		return fmt.Errorf("magus: negative overhead model")
	}
	return nil
}

// Trend is the prediction outcome of Algorithm 1.
type Trend int

const (
	// TrendDown predicts a sharp demand decrease (-1 in the paper).
	TrendDown Trend = -1
	// TrendFlat predicts no significant change (0).
	TrendFlat Trend = 0
	// TrendUp predicts a sharp demand increase (+1).
	TrendUp Trend = 1
)

// String implements fmt.Stringer.
func (t Trend) String() string {
	switch t {
	case TrendDown:
		return "down"
	case TrendUp:
		return "up"
	default:
		return "flat"
	}
}

// predictTrendRing is Algorithm 1: the first derivative of the
// throughput history, thresholded. The derivative is evaluated over
// spans from one up to derivLen intervals and the *shortest significant
// span wins*: the one-interval derivative reacts first to sharp jumps
// (so a burst ending right after a burst starting is never masked by
// stale history), while the longer spans keep a transition visible for
// derivLen cycles — a fall that lands during the warm-up blackout is
// still caught by the first real decision. hist is in FIFO order
// (oldest first); it returns TrendFlat when the history has fewer than
// two samples.
//
// It reads the ring in place, with no Snapshot copy. The slice form
// PredictTrend in the package tests is the reference;
// TestTrendRingMatchesSlice pins the two equal.
func predictTrendRing(hist *ring.Buffer[float64], derivLen int, incGBs, decGBs float64) Trend {
	n := hist.Len() - 1
	if n < 1 {
		return TrendFlat
	}
	if derivLen > n {
		derivLen = n
	}
	newest := hist.At(n)
	for span := 1; span <= derivLen; span++ {
		d := (newest - hist.At(n-span)) / float64(span)
		switch {
		case d > incGBs:
			return TrendUp
		case d < -decGBs:
			return TrendDown
		}
	}
	return TrendFlat
}

// Decision describes one MDFS cycle's outcome, for tracing and tests.
type Decision struct {
	At            time.Duration
	ThroughputGBs float64
	Trend         Trend
	HighFreq      bool
	Warmup        bool
	// TargetGHz is the uncore limit in force after the cycle; PrevGHz
	// is the limit that was in force before it (chosen vs previous).
	TargetGHz float64
	PrevGHz   float64
	// Acted reports whether an MSR write happened this cycle.
	Acted bool
	// Missed marks a cycle that produced no usable throughput sample:
	// the runtime held its last decision (or pinned to max) instead of
	// feeding garbage into the trend window.
	Missed bool
	// SensorHealth is the throughput sensor's state after the cycle.
	SensorHealth resilient.Health
	// DerivGBs is the one-interval throughput derivative Algorithm 1
	// reacts to first (GB/s per monitoring interval); RingFill is how
	// many samples the trend window held when the cycle decided.
	DerivGBs float64
	RingFill int
	// Reason names the decision cause for causality tracing: one of
	// the Reason* constants below.
	Reason string
}

// Decision reasons: why a cycle chose its uncore target.
const (
	// ReasonWarmup: pure monitoring, no tuning yet (§3.3).
	ReasonWarmup = "warmup"
	// ReasonWarmupExit: the last warm-up cycle raising the limit to max.
	ReasonWarmupExit = "warmup-exit-max"
	// ReasonHighFreqPin: Algorithm 2 classified the workload as
	// high-frequency and pinned the uncore at max.
	ReasonHighFreqPin = "high-freq-pin"
	// ReasonTrendUp / ReasonTrendDown: Algorithm 1 executed a scaling
	// decision in the predicted direction.
	ReasonTrendUp   = "trend-up"
	ReasonTrendDown = "trend-down"
	// ReasonFlatHold: no significant trend; the previous limit holds.
	ReasonFlatHold = "flat-hold"
	// ReasonHoldDegraded: missed sample on a degraded sensor — the
	// fail-safe held the last decision rather than feed garbage into
	// the trend window.
	ReasonHoldDegraded = "hold-degraded"
	// ReasonPinLost: the sensor is lost; vendor-default pin at max.
	ReasonPinLost = "pin-lost"
	// ReasonPinWarmupBlind: missed sample during warm-up with no prior
	// decision to hold — pin at max.
	ReasonPinWarmupBlind = "pin-warmup-blind"
)

// Stats aggregates runtime counters for Table 2 / §6.3, plus the
// fault-handling counters of the resilient sensor layer.
type Stats struct {
	Invocations  uint64
	TuneEvents   uint64 // prediction-phase decisions logged (1s pushed)
	Overrides    uint64 // decisions suppressed by high-frequency status
	MSRWrites    uint64
	WarmupCycles uint64

	// MissedSamples counts decision cycles with no usable throughput
	// sample; SensorRetries/SensorTimeouts/WildSamples/StaleSamples
	// break down why reads were re-attempted or rejected.
	MissedSamples  uint64
	SensorRetries  uint64
	SensorTimeouts uint64
	WildSamples    uint64
	StaleSamples   uint64
	// DegradedCycles and LostCycles count missed cycles spent in each
	// health state; Recoveries counts returns to a healthy sensor.
	DegradedCycles uint64
	LostCycles     uint64
	Recoveries     uint64
	// WatchdogOverruns counts cycles whose sensor access latency
	// exceeded the nominal sleep interval — the loop ran late.
	WatchdogOverruns uint64
}

// MAGUS is the runtime. Create with New, bind with Attach, then let the
// harness call Invoke on the decision schedule.
type MAGUS struct {
	// mdfs carries the configuration and the decision automaton.
	mdfs
	env *governor.Env

	// sensor is the resilient read path over env.PCM: bounded retry,
	// virtual-clock timeouts, wild/stale rejection and health tracking.
	sensor *resilient.MemSensor

	stats      Stats
	onDecision []func(Decision)
}

// New returns a MAGUS runtime with cfg.
func New(cfg Config) *MAGUS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MAGUS{mdfs: mdfs{cfg: cfg}}
}

// Name implements governor.Governor.
func (*MAGUS) Name() string { return "magus" }

// Interval implements governor.Governor: the effective decision period
// (invocation + sleep).
func (m *MAGUS) Interval() time.Duration { return m.cfg.Interval + m.cfg.InvocationTime }

// Config returns the active configuration.
func (m *MAGUS) Config() Config { return m.cfg }

// Stats returns runtime counters, merged with the resilient sensor
// layer's fault-handling counters.
func (m *MAGUS) Stats() Stats {
	s := m.stats
	if m.sensor != nil {
		c := m.sensor.Counters()
		s.MissedSamples = c.Misses
		s.SensorRetries = c.Retries
		s.SensorTimeouts = c.Timeouts
		s.WildSamples = c.WildDrops
		s.StaleSamples = c.StaleDrops
		s.DegradedCycles = c.DegradedCycles
		s.LostCycles = c.LostCycles
		s.Recoveries = c.Recoveries
	}
	return s
}

// SensorHealth reports the throughput sensor's current state.
func (m *MAGUS) SensorHealth() resilient.Health {
	if m.sensor == nil {
		return resilient.Healthy
	}
	return m.sensor.Health()
}

// OnDecision adds a per-cycle trace hook; hooks run in installation
// order (a verbose CLI stream and a metrics observer can coexist).
// Passing nil clears every installed hook.
func (m *MAGUS) OnDecision(fn func(Decision)) {
	if fn == nil {
		m.onDecision = nil
		return
	}
	m.onDecision = append(m.onDecision, fn)
}

// Attach implements governor.Governor. Per §4, nodes idle with the
// uncore at its minimum; MAGUS begins its warm-up when the application
// arrives.
func (m *MAGUS) Attach(env *governor.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if env.PCM == nil {
		return fmt.Errorf("magus: env without PCM monitor")
	}
	m.env = env
	m.sensor = resilient.NewMemSensor(env.PCM, m.cfg.Resilience)
	m.reset(env.UncoreMinGHz, env.UncoreMaxGHz)
	m.stats = Stats{}
	if err := env.SetUncoreMax(m.targetGHz); err != nil {
		return err
	}
	m.stats.MSRWrites += uint64(env.Sockets)
	return nil
}

// Invoke implements governor.Governor: one MDFS cycle (Algorithm 3),
// fronted by the resilient sensor layer's fail-safe policy.
func (m *MAGUS) Invoke(now time.Duration) time.Duration {
	m.stats.Invocations++
	if m.env.Charge != nil {
		m.env.Charge(m.cfg.InvocationTime, m.cfg.BusyCores, m.cfg.ExtraWatts)
	}

	r := m.sensor.Read(now)
	if r.Latency > m.cfg.Interval {
		// Watchdog: retries/stalls ate more than the whole sleep
		// budget, so this cycle finishes after its successor was due.
		m.stats.WatchdogOverruns++
	}
	d, tuned := m.step(ReplayInput{
		ThroughputGBs: r.GBs, Missed: !r.OK, Lost: r.Health == resilient.Lost,
		Recovered: r.RecoveredFromLost,
	}, m.writeUncore)
	if d.Warmup && !d.Missed {
		m.stats.WarmupCycles++
	}
	if tuned {
		m.stats.TuneEvents++
		if d.HighFreq {
			m.stats.Overrides++
		}
	}
	d.At, d.SensorHealth = now, r.Health
	m.emit(d)
	if d.Warmup {
		// Warm-up cycles are pure monitoring at the paper's 0.2 s
		// frequency (10 cycles = 2.0 s); full decision cycles with the
		// 0.1 s invocation window start afterwards (§3.3, §6.5).
		return m.cfg.Interval + r.Latency
	}
	if r.Latency <= 0 {
		return 0 // the nominal Interval()
	}
	return m.Interval() + r.Latency
}

// writeUncore applies an uncore limit on every socket and counts the
// MSR writes; a failed write leaves the automaton's target unchanged.
func (m *MAGUS) writeUncore(ghz float64) bool {
	if err := m.env.SetUncoreMax(ghz); err != nil {
		return false
	}
	m.stats.MSRWrites += uint64(m.env.Sockets)
	return true
}

func (m *MAGUS) emit(d Decision) {
	for _, fn := range m.onDecision {
		fn(d)
	}
}
