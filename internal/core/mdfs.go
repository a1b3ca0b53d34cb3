package core

import "github.com/spear-repro/magus/internal/ring"

// mdfs is the MDFS automaton (Algorithm 3 over Algorithms 1 and 2):
// the per-cycle decision state and its transition function, with the
// environment — clock, sensor, MSR device, overhead charging, counters
// — left to the caller. MAGUS.Invoke runs it against the real node;
// Replay.Cycle runs it over a recorded input stream with every uncore
// write succeeding, so the fork planner replays the runtime's own
// transitions rather than a copy of them.
type mdfs struct {
	cfg            Config
	minGHz, maxGHz float64

	memHist *ring.Buffer[float64]
	tuneLog *ring.Buffer[int]
	// tuneCount is the number of non-zero entries currently in tuneLog,
	// maintained incrementally by pushTune so the Algorithm 2 check
	// never rescans the log.
	tuneCount int

	warmupLeft int
	highFreq   bool
	targetGHz  float64
	// lastTrend is the previous cycle's prediction; a differing
	// non-flat prediction is a tune event (trend edge), logged even
	// while the high-frequency override is pinning the uncore (§3.2).
	lastTrend Trend
}

// reset puts the automaton in its initial state on an uncore range:
// empty history, uncore_tune_ls initialised to Window zeros (§3.3), a
// full warm-up ahead, and the warm-up uncore limit as target.
func (a *mdfs) reset(minGHz, maxGHz float64) {
	a.minGHz, a.maxGHz = minGHz, maxGHz
	a.memHist = ring.New[float64](a.cfg.Window)
	a.tuneLog = ring.Filled(a.cfg.Window, 0)
	a.tuneCount = 0
	a.warmupLeft = a.cfg.WarmupCycles
	a.highFreq = false
	a.lastTrend = TrendFlat
	a.targetGHz = minGHz
	if a.cfg.WarmupAtMax {
		a.targetGHz = maxGHz
	}
}

// step advances the automaton by one decision cycle. write applies a
// new uncore limit and reports whether it took effect; nil means every
// write succeeds. It returns the cycle's decision, with At and
// SensorHealth left to the caller, and whether the cycle logged a tune
// event.
func (a *mdfs) step(in ReplayInput, write func(ghz float64) bool) (Decision, bool) {
	prevGHz := a.targetGHz
	if in.Missed {
		// Fail-safe arm: no usable sample. While merely degraded, hold
		// the last decision and skip the derivative update — one dropped
		// sample must not feed garbage into the trend window. Once the
		// sensor is lost (or the runtime is still blind in warm-up, with
		// no decision to hold), pin the uncore at max, the vendor
		// default, so performance is never sacrificed to a blind policy.
		inWarmup := a.warmupLeft > 0
		acted := false
		reason := ReasonHoldDegraded
		if inWarmup || in.Lost {
			acted = a.setUncore(a.maxGHz, write)
			reason = ReasonPinLost
			if inWarmup {
				reason = ReasonPinWarmupBlind
			}
		}
		return Decision{
			Warmup: inWarmup, TargetGHz: a.targetGHz, Acted: acted, Missed: true,
			PrevGHz: prevGHz, RingFill: a.memHist.Len(), Reason: reason,
		}, false
	}
	if in.Recovered {
		// The sensor returned after a full outage: the trend window and
		// tune log hold pre-outage state that no longer describes the
		// workload. Re-enter warm-up (the uncore stays pinned at max
		// until it completes, so recovery never costs performance).
		a.warmupLeft = a.cfg.WarmupCycles
		a.memHist.Reset()
		a.tuneLog.Fill(0)
		a.tuneCount = 0
		a.lastTrend = TrendFlat
		a.highFreq = false
	}

	thr := in.ThroughputGBs
	a.memHist.Push(thr)
	deriv := a.deriv1()

	if a.warmupLeft > 0 {
		a.warmupLeft--
		a.pushTune(0)
		reason := ReasonWarmup
		if a.warmupLeft == 0 {
			// Warm-up complete: start from peak uncore performance so
			// rapidly rising demand is never starved at kick-off (§3.3).
			a.setUncore(a.maxGHz, write)
			a.lastTrend = TrendUp
			reason = ReasonWarmupExit
		}
		return Decision{
			ThroughputGBs: thr, Warmup: true, TargetGHz: a.targetGHz,
			PrevGHz: prevGHz, DerivGBs: deriv, RingFill: a.memHist.Len(), Reason: reason,
		}, false
	}

	// Phase 2 first (Algorithm 3 lines 9–15): the high-frequency state
	// is computed from the log of *previous* cycles' decisions — the
	// rolling non-zero count over the same ratio the reference
	// HighFrequency (reference_test.go) scans.
	hi := !a.cfg.DisableHighFreq &&
		float64(a.tuneCount)/float64(a.tuneLog.Len()) >= a.cfg.HighFreqThreshold
	a.highFreq = hi
	acted := false
	if hi {
		acted = a.setUncore(a.maxGHz, write)
	}

	// Phase 1 (lines 16–30): predict, log the potential tuning event
	// (a flip of the prediction's requested level), and execute it only
	// when not in a high-frequency state.
	tuned := false
	trend := predictTrendRing(a.memHist, a.cfg.DerivLen, a.cfg.IncThresholdGBs, a.cfg.DecThresholdGBs)
	if trend != TrendFlat {
		tuned = trend != a.lastTrend
		a.lastTrend = trend
		if !hi {
			level := a.maxGHz
			if trend == TrendDown {
				level = a.minGHz
			}
			acted = a.setUncore(level, write) || acted
		}
	}
	if tuned {
		a.pushTune(1)
	} else {
		a.pushTune(0)
	}

	reason := ReasonFlatHold
	switch {
	case hi:
		reason = ReasonHighFreqPin
	case trend == TrendUp:
		reason = ReasonTrendUp
	case trend == TrendDown:
		reason = ReasonTrendDown
	}
	return Decision{
		ThroughputGBs: thr, Trend: trend, HighFreq: hi,
		TargetGHz: a.targetGHz, Acted: acted,
		PrevGHz: prevGHz, DerivGBs: deriv, RingFill: a.memHist.Len(), Reason: reason,
	}, tuned
}

// deriv1 returns the one-interval first derivative of the throughput
// history (the span Algorithm 1 reacts to first), 0 with < 2 samples.
func (a *mdfs) deriv1() float64 {
	n := a.memHist.Len() - 1
	if n < 1 {
		return 0
	}
	return a.memHist.At(n) - a.memHist.At(n-1)
}

// pushTune records one cycle's tune-event bit and keeps the rolling
// non-zero count in sync with what enters and leaves the log.
func (a *mdfs) pushTune(v int) {
	evicted, wasFull := a.tuneLog.Push(v)
	if wasFull && evicted != 0 {
		a.tuneCount--
	}
	if v != 0 {
		a.tuneCount++
	}
}

// setUncore moves the target to ghz if it differs and the write takes
// effect, and reports whether it moved.
func (a *mdfs) setUncore(ghz float64, write func(ghz float64) bool) bool {
	if ghz == a.targetGHz || (write != nil && !write(ghz)) {
		return false
	}
	a.targetGHz = ghz
	return true
}

// TargetGHz returns the uncore limit the automaton currently holds.
func (a *mdfs) TargetGHz() float64 { return a.targetGHz }
