package node

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/workload"
)

// TestCounterFlushContract pins how the fixed counters reach the
// register file: the first fixed-counter read after a Step publishes
// every core's accumulators, in whatever order the CPUs are read, and
// later reads in the same step publish nothing.
func TestCounterFlushContract(t *testing.T) {
	n := New(IntelA100())
	n.SetDemand(workload.Demand{CPUBusyCores: 50, MemGBs: 150, MemBoundFrac: 0.5})
	stepFor(n, 500*time.Millisecond)
	dev := n.MSRDevice()
	cpus := n.Space().CPUs()

	// Last CPU first, then every CPU in a fixed shuffled order.
	order := append([]int{cpus - 1}, rand.New(rand.NewSource(3)).Perm(cpus)...)
	busy := 0
	for _, cpu := range order {
		inst, err := dev.Read(cpu, msr.FixedCtrInstRetired)
		if err != nil {
			t.Fatal(err)
		}
		cyc, err := dev.Read(cpu, msr.FixedCtrCPUCycles)
		if err != nil {
			t.Fatal(err)
		}
		if inst != uint64(n.instAcc[cpu]) || cyc != uint64(n.cycAcc[cpu]) {
			t.Fatalf("cpu %d read (%d, %d), accumulators hold (%d, %d)",
				cpu, inst, cyc, uint64(n.instAcc[cpu]), uint64(n.cycAcc[cpu]))
		}
		if inst != 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no core retired instructions; the sweep checks nothing")
	}

	// A second sweep in the same step leaves the banks as they were.
	before := n.Space().State()
	for _, cpu := range order {
		dev.Read(cpu, msr.FixedCtrInstRetired)
		dev.Read(cpu, msr.FixedCtrCPUCycles)
	}
	after := n.Space().State()
	if !reflect.DeepEqual(before.Pkg, after.Pkg) || !reflect.DeepEqual(before.Core, after.Core) {
		t.Fatal("second sweep in one step changed the register banks")
	}

	// ...and publishes nothing: a value written between the sweeps reads
	// back until the next Step or Restore republishes the accumulators.
	const sentinel = 0xdead
	n.Space().Poke(7, msr.FixedCtrInstRetired, sentinel)
	if v, _ := dev.Read(7, msr.FixedCtrInstRetired); v != sentinel {
		t.Fatalf("same-step read = %d, want the written %d (a second flush ran)", v, sentinel)
	}
	if err := n.Restore(n.State()); err != nil {
		t.Fatal(err)
	}
	if v, _ := dev.Read(7, msr.FixedCtrInstRetired); v != uint64(n.instAcc[7]) {
		t.Fatalf("read after Restore = %d, want accumulator %d", v, uint64(n.instAcc[7]))
	}
	n.Space().Poke(7, msr.FixedCtrInstRetired, sentinel)
	n.Step(time.Second, time.Millisecond)
	if v, _ := dev.Read(7, msr.FixedCtrInstRetired); v != uint64(n.instAcc[7]) {
		t.Fatalf("read after Step = %d, want accumulator %d", v, uint64(n.instAcc[7]))
	}
}

// TestCounterReadBadCPU checks that an out-of-range CPU fails with
// ErrBadCPU, before and after the step's flush, without panicking.
func TestCounterReadBadCPU(t *testing.T) {
	n := New(IntelA100())
	stepFor(n, 10*time.Millisecond)
	dev := n.MSRDevice()
	for _, cpu := range []int{-1, n.Space().CPUs(), n.Space().CPUs() + 40} {
		for _, reg := range []uint32{msr.FixedCtrInstRetired, msr.FixedCtrCPUCycles} {
			if _, err := dev.Read(cpu, reg); !errors.Is(err, msr.ErrBadCPU) {
				t.Errorf("Read(%d, %#x) err = %v, want ErrBadCPU", cpu, reg, err)
			}
		}
	}
}
