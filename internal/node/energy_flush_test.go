package node

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/workload"
)

// readEnergy reads every socket's energy registers through the node's
// MSR device: package then DRAM, socket by socket.
func readEnergy(t *testing.T, n *Node) []uint64 {
	t.Helper()
	dev := n.MSRDevice()
	var out []uint64
	for _, cpu := range n.cpu0 {
		for _, reg := range []uint32{msr.PkgEnergyStatus, msr.DramEnergyStatus} {
			v, err := dev.Read(cpu, reg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return out
}

func stateBytes(t *testing.T, n *Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n.State()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnergyFlushContract pins how RAPL energy reaches the register
// file. The node adds each step's whole units to pending counts and
// publishes them only where the registers can be observed; an eager
// twin publishes after every Step, which is what every Step used to
// do. Both run the same jittered demand across 32-bit wraps of both
// counters, and at every observation the two must agree: reads through
// MSRDevice, State bytes (register values and "set" bits included),
// Restore, and a repeated read with no Step in between.
func TestEnergyFlushContract(t *testing.T) {
	lazy, eager := New(IntelA100()), New(IntelA100())
	dt := time.Millisecond
	now := time.Duration(0)
	rng := rand.New(rand.NewSource(9))
	step := func(nodes ...*Node) {
		d := workload.Demand{
			CPUBusyCores: 40 * rng.Float64(), MemGBs: 300 * rng.Float64(),
			MemBoundFrac: 0.5, GPUSMUtil: rng.Float64(),
		}
		for _, n := range nodes {
			n.SetDemand(d)
			n.Step(now, dt)
		}
		eager.publishEnergy()
		now += dt
	}

	// A fresh node has never set an energy register; one step sets them
	// all, on both nodes alike.
	if !bytes.Equal(stateBytes(t, lazy), stateBytes(t, eager)) {
		t.Fatal("fresh nodes differ")
	}
	step(lazy, eager)
	if !bytes.Equal(stateBytes(t, lazy), stateBytes(t, eager)) {
		t.Fatal("State after one step differs from the eager twin's")
	}

	// Park socket 0's package counter and socket 1's DRAM counter just
	// below the wrap, so both wrap within the run.
	for _, n := range []*Node{lazy, eager} {
		n.Space().Poke(n.cpu0[0], msr.PkgEnergyStatus, msr.EnergyCounterMask-50000)
		n.Space().Poke(n.cpu0[1], msr.DramEnergyStatus, msr.EnergyCounterMask-3)
	}
	start := readEnergy(t, eager)
	readEnergy(t, lazy)
	wrapped := make([]bool, len(start))
	prev := start
	for i := 0; i < 3000; i++ {
		step(lazy, eager)
		switch {
		case i%37 == 0:
			// Observed every 37 steps: the lazy node publishes 37 steps'
			// pending units at once.
			got, want := readEnergy(t, lazy), readEnergy(t, eager)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: lazy reads %v, eager twin %v", i, got, want)
			}
			for j := range want {
				if want[j] < prev[j] {
					wrapped[j] = true
				}
			}
			prev = want
			// A read with no step in between publishes nothing new.
			if again := readEnergy(t, lazy); !reflect.DeepEqual(again, got) {
				t.Fatalf("step %d: second read %v, first %v", i, again, got)
			}
			readEnergy(t, eager) // keep the access counters in step
		case i%101 == 50:
			if !bytes.Equal(stateBytes(t, lazy), stateBytes(t, eager)) {
				t.Fatalf("step %d: State differs from the eager twin's", i)
			}
		}
	}
	if !wrapped[0] || !wrapped[3] {
		t.Fatalf("counters never wrapped (%v); the run checks no wrap", wrapped)
	}

	// Restore drops pending units: steps taken after the snapshot leave
	// no trace once it is restored.
	snap := lazy.State()
	for i := 0; i < 50; i++ {
		step(lazy)
	}
	if err := lazy.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := readEnergy(t, lazy), readEnergy(t, eager); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Restore lazy reads %v, eager twin %v", got, want)
	}
	for i := 0; i < 200; i++ {
		step(lazy, eager)
	}
	if !bytes.Equal(stateBytes(t, lazy), stateBytes(t, eager)) {
		t.Fatal("State after Restore and more steps differs from the eager twin's")
	}
}
