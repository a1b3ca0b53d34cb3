package node

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/workload"
)

// TestStepZeroAlloc pins the hot-tick contract: once warm, Node.Step
// performs no heap allocations. The demand includes CPU, memory, and
// GPU load so every branch of the step body runs.
func TestStepZeroAlloc(t *testing.T) {
	n := New(IntelA100())
	n.SetDemand(workload.Demand{
		MemGBs:       200,
		CPUBusyCores: 20,
		MemBoundFrac: 0.6,
		GPUSMUtil:    0.9,
		GPUMemUtil:   0.5,
	})
	now := time.Duration(0)
	dt := time.Millisecond
	step := func() {
		n.Step(now, dt)
		now += dt
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("Node.Step allocates %v times per call, want 0", allocs)
	}
}

// TestStepZeroAllocWithDaemon covers the daemon-queue drain path: queue
// reuse must keep steady-state append+drain cycles allocation-free once
// the backing array has grown to its working size.
func TestStepZeroAllocWithDaemon(t *testing.T) {
	n := New(IntelA100())
	n.SetDemand(workload.Demand{MemGBs: 50, CPUBusyCores: 4})
	now := time.Duration(0)
	dt := time.Millisecond
	step := func() {
		if len(n.daemon) == n.daemonHead {
			n.AddDaemonBusy(2*time.Millisecond, 0.5, 1.0)
		}
		n.Step(now, dt)
		now += dt
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("Node.Step with daemon work allocates %v times per call, want 0", allocs)
	}
}

// TestRelPowMemoMatchesRelPow pins the memoised power-law evaluation to
// the reference relPow: identical bits for every input, including the
// clamped edges, repeated keys, and enough distinct keys to cycle the
// memo's round-robin eviction.
func TestRelPowMemoMatchesRelPow(t *testing.T) {
	n := New(IntelA100())
	exp := n.cfg.Core.FreqExp
	rng := rand.New(rand.NewSource(42))
	inputs := []float64{0, -0.5, 1, 1.5, 0.5, 0.5, 0.123456789}
	for i := 0; i < 5000; i++ {
		inputs = append(inputs, rng.Float64())
	}
	// Replay some early keys after eviction has cycled the memo.
	inputs = append(inputs, 0.5, 0.123456789)
	for _, rel := range inputs {
		want := relPow(rel, exp)
		got := n.relPowMemo(rel)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("relPowMemo(%v) = %v, relPow = %v (bit mismatch)", rel, got, want)
		}
	}
}

// relPow is the reference the memo is pinned to: the clamped power law
// evaluated with math.Pow.
func relPow(rel, exp float64) float64 {
	if rel <= 0 {
		return 0
	}
	if rel >= 1 {
		return 1
	}
	return math.Pow(rel, exp)
}

// TestLimitCacheFollowsWrites checks that Step picks up limit-register
// writes made between ticks: the cached decode must refresh on the MSR
// space's limit generation, not lag behind it.
func TestLimitCacheFollowsWrites(t *testing.T) {
	n := New(IntelA100())
	n.SetDemand(workload.Demand{MemGBs: 100, CPUBusyCores: 8})
	dt := 10 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		n.Step(now, dt)
		now += dt
	}

	// Pin both sockets' uncore to the minimum and step to steady state.
	min := n.cfg.UncoreMinGHz
	val := msr.EncodeUncoreLimit(min*1e9, min*1e9)
	for s := 0; s < n.cfg.Sockets; s++ {
		if err := n.space.Write(n.space.FirstCPUOf(s), msr.UncoreRatioLimit, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		n.Step(now, dt)
		now += dt
	}
	for s := 0; s < n.cfg.Sockets; s++ {
		if got := n.UncoreFreqGHz(s); math.Abs(got-min) > 1e-6 {
			t.Fatalf("socket %d uncore = %v GHz after pinning limit to %v", s, got, min)
		}
	}
}

// newAllocs is the allocation count of New for a GPU node of any
// topology: the node, its register file (three), one backing array per
// element type of the per-socket and per-core state (five), and the GPU
// array.
const newAllocs = 10

// TestNewAllocs pins that building a node costs a constant number of
// allocations, independent of the core and GPU count: 40 and 32 cores
// per socket, one GPU or four, build with the same count.
func TestNewAllocs(t *testing.T) {
	for _, cfg := range []Config{IntelA100(), IntelMax1550(), Intel4A100()} {
		got := testing.AllocsPerRun(20, func() { nodeSink = New(cfg) })
		if got != newAllocs {
			t.Errorf("New(%s, %d×%d cores) allocates %v times, want %d",
				cfg.Name, cfg.Sockets, cfg.CoresPerSocket, got, newAllocs)
		}
	}
}
