package node

import (
	"math/rand"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/workload"
)

// BenchmarkHotPathNodeStep measures one node step under a busy mixed
// demand — uncore slew, memory service, per-core DVFS and the power
// model for every core, RAPL accumulation, TDP clamp and GPUs. This is
// the dominant per-millisecond cost of a cell; steady state must be
// allocation-free.
func BenchmarkHotPathNodeStep(b *testing.B) {
	n := New(IntelA100())
	n.SetDemand(workload.Demand{
		MemGBs: 200, CPUBusyCores: 20, MemBoundFrac: 0.6, GPUSMUtil: 0.9, GPUMemUtil: 0.5,
	})
	for i := 0; i < 100; i++ { // steady state before the timer starts
		n.Step(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(time.Duration(100+i)*time.Millisecond, time.Millisecond)
	}
}

// BenchmarkHotPathNodeStepJittered is BenchmarkHotPathNodeStep under
// the demand a workload.Runner phase produces: first-order filtered
// noise (Jitter 0.05) on CPUBusyCores and MemGBs. The fractional core's
// target and the uncore slew then move every tick, so the power-law
// memo misses as it does in real runs; under constant demand it always
// hits after warm-up and the miss path goes unmeasured. The sequence
// is precomputed so the timed loop holds only the step.
func BenchmarkHotPathNodeStepJittered(b *testing.B) {
	const jitter = 0.05
	base := workload.Demand{
		MemGBs: 200, CPUBusyCores: 20, MemBoundFrac: 0.6, GPUSMUtil: 0.9, GPUMemUtil: 0.5,
	}
	seq := make([]workload.Demand, 4096)
	rng := rand.New(rand.NewSource(1))
	var noise float64
	for i := range seq {
		noise += 0.1 * (rng.Float64()*2 - 1 - noise)
		d := base
		d.CPUBusyCores *= 1 + jitter*noise
		d.MemGBs *= 1 + jitter*noise*2
		seq[i] = d
	}
	n := New(IntelA100())
	for i := 0; i < 100; i++ { // steady state before the timer starts
		n.SetDemand(seq[i%len(seq)])
		n.Step(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SetDemand(seq[(100+i)%len(seq)])
		n.Step(time.Duration(100+i)*time.Millisecond, time.Millisecond)
	}
}

// nodeSink keeps the compiler from eliding the constructions measured
// by BenchmarkNew and TestNewAllocs.
var nodeSink *Node

// BenchmarkNew measures building one Intel+A100 node (2×40 cores, one
// GPU), the node's share of a member's set-up.
func BenchmarkNew(b *testing.B) {
	cfg := IntelA100()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nodeSink = New(cfg)
	}
}
