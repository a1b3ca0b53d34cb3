package harness

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/workload"
)

// TestSteadyStateTickZeroAlloc pins the tentpole contract end to end:
// with the full Run wiring (runner → node demand flow, node, telemetry
// recorder, MAGUS governor task, no observer — the nil-Obs path), a
// steady-state engine tick heap-allocates nothing. The trace recorder
// is reserved for the whole horizon, as Run does, so sampling appends
// into preallocated storage.
func TestSteadyStateTickZeroAlloc(t *testing.T) {
	cfg := node.IntelA100()
	prog, ok := workload.ByName("unet")
	if !ok {
		t.Fatal("unknown workload unet")
	}
	eng := sim.NewEngine(0)
	n := node.New(cfg)
	runner := workload.NewRunner(prog, cfg.SystemBWGBs(), 1)
	runner.SetAttained(n.AttainedGBs)

	gov := core.New(core.DefaultConfig())
	env, _, envErr := buildEnv(n, nil, nil)
	if envErr != nil {
		t.Fatal(envErr)
	}
	if err := gov.Attach(env); err != nil {
		t.Fatal(err)
	}

	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		runner.Step(now, dt)
		n.SetDemand(runner.Demand())
	}))
	eng.AddComponent(n)

	interval := 100 * time.Millisecond
	rec := NewNodeRecorder(n, interval)
	rec.Reserve(int(prog.NominalDuration()/interval) + 2)
	eng.AddComponent(rec)

	eng.AddTask(&sim.Task{Name: gov.Name(), Interval: gov.Interval(), Fn: gov.Invoke}, 0)

	// Warm past MDFS warmup, the first trace samples, and the phase
	// transitions' first traversal so every lazily-grown buffer has
	// reached its working size.
	eng.RunFor(20 * time.Second)

	step := eng.Step()
	if allocs := testing.AllocsPerRun(2000, func() { eng.RunFor(step) }); allocs != 0 {
		t.Fatalf("steady-state engine tick allocates %v times per tick, want 0", allocs)
	}
}

// newSteppableMaxAllocs bounds the allocations of wiring one
// single-tenant MAGUS run without observers: engine, node, runner and
// its source, environment, governor attach, component and task
// registration. None of them grows with the core count.
const newSteppableMaxAllocs = 45

// TestNewSteppableAllocs pins the set-up cost of one member. The
// governors are built beforehand, outside the measurement, because each
// run needs a fresh one.
func TestNewSteppableAllocs(t *testing.T) {
	prog, ok := workload.ByName("bfs")
	if !ok {
		t.Fatal("unknown workload bfs")
	}
	for _, cfg := range []node.Config{node.IntelA100(), node.IntelMax1550()} {
		const runs = 20
		govs := make([]*core.MAGUS, runs+1) // AllocsPerRun adds a warm-up run
		for i := range govs {
			govs[i] = core.New(core.DefaultConfig())
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if _, err := NewSteppable(cfg, prog, govs[i], Options{Seed: 7}); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > newSteppableMaxAllocs {
			t.Errorf("NewSteppable(%s) allocates %v times, want at most %d", cfg.Name, got, newSteppableMaxAllocs)
		}
	}
}

// BenchmarkNewSteppable times wiring one member, governor included.
func BenchmarkNewSteppable(b *testing.B) {
	cfg := node.IntelA100()
	prog, ok := workload.ByName("bfs")
	if !ok {
		b.Fatal("unknown workload bfs")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSteppable(cfg, prog, core.New(core.DefaultConfig()), Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
