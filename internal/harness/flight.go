package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/resilient"
)

// Flight-recorder wiring. When Options.Flight is set the run records
// its recent governor decisions, sensor-health transitions and
// fault-injection tallies into the caller's bounded ring
// (internal/flight) — the always-on postmortem tail magusd serve dumps
// when a session panics, on SIGQUIT, or from GET /debug/flight.
//
// Recording is strictly passive (reads of state the simulation already
// computed) and allocation-free, so an armed run stays byte-identical
// to an unarmed one; with Options.Flight nil no component is added and
// the wiring is byte-for-byte the seed path.

// flightObserver polls health and fault state each tick and records
// transitions; decisions arrive through the governor's OnDecision
// hook. It implements sim.Component.
type flightObserver struct {
	ring   *flight.Ring
	fset   *faults.Set
	health func() resilient.Health

	lastHealth resilient.Health
	haveTally  bool
	lastTally  faults.Tally
}

// installFlight wires the ring into a run: the per-tick transition
// poller plus — when the governor exposes a decision stream — the
// OnDecision hook (hooks append, so the metrics observer and the
// flight recorder coexist).
func installFlight(ring *flight.Ring, fset *faults.Set, gov governor.Governor) *flightObserver {
	p := Probe(gov)
	fo := &flightObserver{ring: ring, fset: fset, health: p.Health}
	if p.OnDecision != nil {
		p.OnDecision(fo.onDecision)
	}
	return fo
}

// Decision outcome tags (constant strings: recording never allocates).
var flightOutcomes = [...]string{"hold", "acted", "warmup", "missed"}

func flightOutcome(d core.Decision) string {
	switch {
	case d.Missed:
		return flightOutcomes[3]
	case d.Warmup:
		return flightOutcomes[2]
	case d.Acted:
		return flightOutcomes[1]
	default:
		return flightOutcomes[0]
	}
}

// onDecision records one governor decision: A is the requested uncore
// target in GHz, B the sensed throughput in GB/s, C the sensor health.
func (fo *flightObserver) onDecision(d core.Decision) {
	fo.ring.Record(d.At.Seconds(), flight.KindDecision, flightOutcome(d),
		d.TargetGHz, d.ThroughputGBs, float64(d.SensorHealth))
}

// Step implements sim.Component: record sensor-health transitions
// (A=from, B=to) and fault-tally changes (A=total injected) as they
// happen.
func (fo *flightObserver) Step(now, dt time.Duration) {
	if fo.health != nil {
		if h := fo.health(); h != fo.lastHealth {
			fo.ring.Record(now.Seconds(), flight.KindHealth, h.String(),
				float64(fo.lastHealth), float64(h), 0)
			fo.lastHealth = h
		}
	}
	if fo.fset != nil {
		if t := fo.fset.Tally(); !fo.haveTally || t != fo.lastTally {
			if fo.haveTally { // skip the all-zero arming snapshot
				fo.ring.Record(now.Seconds(), flight.KindFault, "injected",
					float64(t.Total()), 0, 0)
			}
			fo.haveTally = true
			fo.lastTally = t
		}
	}
}
