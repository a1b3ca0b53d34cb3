package main

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/serve"
)

// Every spec the pool can draw must be admitted: a workload on which
// operations fail measures the failure path instead.
func TestServeSpecsAreAdmitted(t *testing.T) {
	mg := serve.NewManager(serve.Config{MaxSessions: 1000})
	t.Cleanup(func() { mg.Close(t.Context()) })
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 60; i++ {
			sp := serveSpec(seed, i)
			if _, err := mg.Create(sp); err != nil {
				t.Fatalf("seed %d spec %d %+v: %v", seed, i, sp, err)
			}
			if _, _, _, _, err := specRun(sp, true, 16); err != nil {
				t.Fatalf("seed %d spec %d: specRun: %v", seed, i, err)
			}
		}
	}
}

// Timing a governor must not change what the harness attaches to it:
// a timed run's flight ring, power-capped or not, records what the
// untimed run's does.
func TestTimedGovernorKeepsHooks(t *testing.T) {
	for _, idx := range []int{0, 3, 7} { // MAGUS, UPS, MAGUS under a power cap
		sp := serveSpec(1, idx)
		records := func(timed bool) uint64 {
			hb := &harnessBackend{runs: map[string]*harness.Steppable{}, flightCap: flight.DefaultCap}
			var ns, n int64
			if timed {
				hb.wrap = func(g governor.Governor) governor.Governor { return timeGovernor(g, &ns, &n) }
			}
			id, err := hb.create(sp)
			if err != nil {
				t.Fatalf("spec %d: %v", idx, err)
			}
			for done := false; !done; {
				sr, err := hb.step(id, 30*time.Second)
				if err != nil {
					t.Fatalf("spec %d: %v", idx, err)
				}
				done = sr.Done
			}
			if timed && n == 0 {
				t.Errorf("spec %d: the timed governor was never invoked", idx)
			}
			return hb.flightRecords()
		}
		if plain, timed := records(false), records(true); plain != timed {
			t.Errorf("spec %d (%s, cap %g W): %d flight records timed, %d untimed", idx, sp.Governor, sp.PowerCapW, timed, plain)
		}
	}
}
