package msr

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"sort"
	"testing"
)

func gobBytes(t *testing.T, st SpaceState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func hasReg(b BankState, reg uint32) (uint64, bool) {
	for _, rv := range b.Regs {
		if rv.Reg == reg {
			return rv.Val, true
		}
	}
	return 0, false
}

// populated returns a 2×3 space with registers set through every path:
// Write, Poke, Bump and BumpEnergy, including explicit zeros.
func populated(t *testing.T) *Space {
	t.Helper()
	s := NewSpace(2, 3)
	if err := s.Write(0, UncoreRatioLimit, EncodeUncoreLimit(2.2e9, 0.8e9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(4, PkgPowerLimit, 0); err != nil {
		t.Fatal(err)
	}
	s.Poke(3, UncorePerfStatus, 18)
	s.Poke(0, PkgPowerInfo, 2160)
	s.BumpEnergy(0, 100, 0) // DRAM delta 0: DramEnergyStatus stays unset
	s.BumpEnergy(3, 0, 7)
	s.Poke(5, FixedCtrCPUCycles, 9)
	s.Poke(5, FixedCtrInstRetired, 0)
	s.Bump(1, Aperf, 3)
	s.Poke(1, Mperf, 4)
	s.Read(2, FixedCtrInstRetired) // a read sets nothing
	return s
}

func TestStateSetRegisters(t *testing.T) {
	st := populated(t).State()

	if v, ok := hasReg(st.Core[5], FixedCtrInstRetired); !ok || v != 0 {
		t.Fatalf("register written with 0: (%d, %v), want present with 0", v, ok)
	}
	if v, ok := hasReg(st.Pkg[1], PkgPowerLimit); !ok || v != 0 {
		t.Fatalf("package register written with 0: (%d, %v), want present with 0", v, ok)
	}
	if _, ok := hasReg(st.Pkg[0], DramEnergyStatus); ok {
		t.Fatal("DramEnergyStatus was never set but appears in socket 0's bank")
	}
	if _, ok := hasReg(st.Pkg[1], PkgEnergyStatus); ok {
		t.Fatal("PkgEnergyStatus was never set but appears in socket 1's bank")
	}
	if len(st.Core[2].Regs) != 0 || len(st.Core[0].Regs) != 0 {
		t.Fatalf("untouched core banks hold %v and %v", st.Core[0].Regs, st.Core[2].Regs)
	}
	if _, ok := hasReg(st.Pkg[1], RaplPowerUnit); !ok {
		t.Fatal("RaplPowerUnit default missing from socket 1")
	}

	for i, b := range append(append([]BankState(nil), st.Pkg...), st.Core...) {
		if !sort.SliceIsSorted(b.Regs, func(x, y int) bool { return b.Regs[x].Reg < b.Regs[y].Reg }) {
			t.Fatalf("bank %d not sorted by address: %v", i, b.Regs)
		}
	}
	want := []RegVal{
		{RaplPowerUnit, EncodePowerUnit(DefaultPowerUnitExp, DefaultEnergyUnitExp, DefaultTimeUnitExp)},
		{PkgEnergyStatus, 100},
		{PkgPowerInfo, 2160},
		{UncoreRatioLimit, EncodeUncoreLimit(2.2e9, 0.8e9)},
	}
	if !reflect.DeepEqual(st.Pkg[0].Regs, want) {
		t.Fatalf("socket 0 bank = %v, want %v", st.Pkg[0].Regs, want)
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	src := populated(t)
	st := src.State()
	dst := NewSpace(2, 3)
	dst.Poke(2, FixedCtrCPUCycles, 55) // overwritten: absent from st
	if err := dst.Restore(st); err != nil {
		t.Fatal(err)
	}
	if a, b := gobBytes(t, st), gobBytes(t, dst.State()); !bytes.Equal(a, b) {
		t.Fatal("State→Restore→State is not byte-identical under gob")
	}
	if v := dst.Peek(2, FixedCtrCPUCycles); v != 0 {
		t.Fatalf("register absent from the snapshot reads %d after Restore, want 0", v)
	}
	if dst.LimitGen() != src.LimitGen() {
		t.Fatalf("limit generation %d, want %d", dst.LimitGen(), src.LimitGen())
	}
}

func TestRestoreRejectsBadBanksAtomically(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(*SpaceState)
		isErr error
	}{
		{"unknown register in a core bank", func(st *SpaceState) {
			st.Core[4].Regs = append(st.Core[4].Regs, RegVal{Reg: 0xDEAD, Val: 1})
		}, ErrUnknownReg},
		{"unknown register in a package bank", func(st *SpaceState) {
			st.Pkg[1].Regs = append(st.Pkg[1].Regs, RegVal{Reg: 0x123, Val: 1})
		}, ErrUnknownReg},
		{"core register in a package bank", func(st *SpaceState) {
			st.Pkg[1].Regs = append(st.Pkg[1].Regs, RegVal{Reg: FixedCtrInstRetired, Val: 1})
		}, nil},
		{"package register in a core bank", func(st *SpaceState) {
			st.Core[5].Regs = append(st.Core[5].Regs, RegVal{Reg: UncoreRatioLimit, Val: 1})
		}, nil},
		{"register twice in one bank", func(st *SpaceState) {
			st.Core[1].Regs = append(st.Core[1].Regs, RegVal{Reg: Aperf, Val: 1})
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The bad state is a fresh space's snapshot, edited; the
			// target holds different values, all of which must survive.
			bad := NewSpace(2, 3).State()
			bad.Reads, bad.Writes, bad.LimGen = 100, 200, 300
			bad.Core[1].Regs = []RegVal{{Aperf, 9}}
			c.edit(&bad)

			s := populated(t)
			before := gobBytes(t, s.State())
			err := s.Restore(bad)
			if err == nil {
				t.Fatal("Restore accepted a malformed bank")
			}
			if c.isErr != nil && !errors.Is(err, c.isErr) {
				t.Fatalf("err = %v, want %v", err, c.isErr)
			}
			if !bytes.Equal(before, gobBytes(t, s.State())) {
				t.Fatal("a rejected Restore changed the space")
			}
		})
	}
}

// TestSlotTables checks that regSlot and the slot→register tables agree
// and that slots run in address order, which State relies on for its
// sorted output.
func TestSlotTables(t *testing.T) {
	for _, tab := range []struct {
		scope Scope
		regs  []uint32
	}{{PackageScope, pkgSlotRegs[:]}, {CoreScope, coreSlotRegs[:]}} {
		for slot, reg := range tab.regs {
			if sc, got, ok := regSlot(reg); !ok || sc != tab.scope || got != slot {
				t.Errorf("regSlot(%#x) = (%v, %d, %v), want (%v, %d, true)", reg, sc, got, ok, tab.scope, slot)
			}
			if slot > 0 && tab.regs[slot-1] >= reg {
				t.Errorf("slot %d (%#x) does not follow slot %d (%#x) in address order",
					slot, reg, slot-1, tab.regs[slot-1])
			}
		}
	}
}
