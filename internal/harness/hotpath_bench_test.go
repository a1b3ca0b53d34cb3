package harness

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/workload"
)

// BenchmarkHotPathSpansDisabledTick measures one steady-state engine
// tick with the full Run wiring and no tracer attached — the exact
// configuration TestSteadyStateTickZeroAlloc pins at zero allocations.
// The row exists so cmd/benchgate keeps gating the spans-disabled hot
// path at 0 allocs/op: the tracing layer must stay free when off.
func BenchmarkHotPathSpansDisabledTick(b *testing.B) {
	cfg := node.IntelA100()
	prog, ok := workload.ByName("unet")
	if !ok {
		b.Fatal("unknown workload unet")
	}
	eng := sim.NewEngine(0)
	n := node.New(cfg)
	runner := workload.NewRunner(prog, cfg.SystemBWGBs(), 1)
	runner.SetAttained(n.AttainedGBs)

	gov := core.New(core.DefaultConfig())
	env, _, err := buildEnv(n, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := gov.Attach(env); err != nil {
		b.Fatal(err)
	}

	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		runner.Step(now, dt)
		n.SetDemand(runner.Demand())
	}))
	eng.AddComponent(n)

	// Reserve trace storage for the benchmark's whole virtual horizon
	// (b.N engine ticks past warm-up), as Run reserves for its horizon —
	// otherwise recorder growth past the nominal duration shows up as
	// amortised bytes that have nothing to do with the tick loop.
	interval := 100 * time.Millisecond
	rec := NewNodeRecorder(n, interval)
	rec.Reserve(int(prog.NominalDuration()/interval) + b.N/100 + 256)
	eng.AddComponent(rec)

	eng.AddTask(&sim.Task{Name: gov.Name(), Interval: gov.Interval(), Fn: gov.Invoke}, 0)

	// Warm past MDFS warmup and lazy buffer growth, as the alloc test does.
	eng.RunFor(20 * time.Second)
	step := eng.Step()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(step)
	}
}

// benchHotPathInvoke measures one node Step plus one governor Invoke on
// a warmed Intel+A100 node (80 CPUs) through the node's real MSR
// device: the cost a per-core counter sweeper pays in the register
// file. Invocations are charged to the node as daemon work only in a
// real run; here the governor fires every step, so charging would grow
// the daemon queue without bound and is left unwired.
func benchHotPathInvoke(b *testing.B, gov governor.Governor) {
	n := node.New(node.IntelA100())
	n.SetDemand(workload.Demand{
		MemGBs: 200, CPUBusyCores: 20, MemBoundFrac: 0.6, GPUSMUtil: 0.9, GPUMemUtil: 0.5,
	})
	env, _, err := buildEnv(n, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	env.Charge = nil
	if err := gov.Attach(env); err != nil {
		b.Fatal(err)
	}
	now := time.Duration(0)
	for i := 0; i < 2000; i++ { // warm past the first sweeps and slews
		n.Step(now, time.Millisecond)
		now += time.Millisecond
		if i%300 == 0 {
			gov.Invoke(now)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(now, time.Millisecond)
		now += time.Millisecond
		gov.Invoke(now)
	}
}

// BenchmarkHotPathUPSInvoke: UPS reads both fixed counters of all 80
// CPUs every invocation.
func BenchmarkHotPathUPSInvoke(b *testing.B) {
	benchHotPathInvoke(b, governor.NewUPS(governor.DefaultUPSConfig()))
}

// BenchmarkHotPathDUFInvoke: DUF reads instructions retired on all 80
// CPUs every invocation.
func BenchmarkHotPathDUFInvoke(b *testing.B) {
	benchHotPathInvoke(b, governor.NewDUF(governor.DefaultDUFConfig()))
}
