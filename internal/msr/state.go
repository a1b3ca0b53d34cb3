package msr

import (
	"fmt"
	"math/bits"
)

// RegVal is one register's value inside a bank snapshot.
type RegVal struct {
	Reg uint32
	Val uint64
}

// BankState is one register bank: the registers that were ever set,
// sorted by register address so the snapshot is deterministic.
type BankState struct {
	Regs []RegVal
}

// SpaceState is the full mutable state of a register space. The
// topology (sockets × cpus) is construction input, not state: a
// restore target must be built with the same shape.
type SpaceState struct {
	Pkg    []BankState // per socket
	Core   []BankState // per logical CPU
	Reads  uint64
	Writes uint64
	LimGen uint64
}

// state lists the set slots of b in slot order, which is address order;
// regs names the register in each slot.
func (b *bank[V]) state(regs []uint32) BankState {
	out := BankState{Regs: make([]RegVal, 0, bits.OnesCount8(b.set))}
	for slot, reg := range regs {
		if b.set&(1<<slot) != 0 {
			out.Regs = append(out.Regs, RegVal{Reg: reg, Val: b.val[slot]})
		}
	}
	return out
}

// bankFrom decodes a bank snapshot into b, which must be zero. Every
// register must have the given scope and appear at most once.
func bankFrom[V [pkgSlots]uint64 | [coreSlots]uint64](b *bank[V], st BankState, scope Scope) error {
	for _, rv := range st.Regs {
		sc, slot, ok := regSlot(rv.Reg)
		switch {
		case !ok:
			return fmt.Errorf("%w: %#x", ErrUnknownReg, rv.Reg)
		case sc != scope:
			return fmt.Errorf("msr: register %#x is outside its bank's scope", rv.Reg)
		case b.set&(1<<slot) != 0:
			return fmt.Errorf("msr: register %#x appears twice in one bank", rv.Reg)
		}
		cellOf(b, slot).store(rv.Val)
	}
	return nil
}

// State captures every register bank plus the access counters and the
// limit-write generation.
func (s *Space) State() SpaceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpaceState{
		Pkg:    make([]BankState, len(s.pkgRegs)),
		Core:   make([]BankState, len(s.coreRegs)),
		Reads:  s.reads,
		Writes: s.writes,
		LimGen: s.limGen.Load(),
	}
	for i := range s.pkgRegs {
		st.Pkg[i] = s.pkgRegs[i].state(pkgSlotRegs[:])
	}
	for i := range s.coreRegs {
		st.Core[i] = s.coreRegs[i].state(coreSlotRegs[:])
	}
	return st
}

// Restore overwrites every bank and counter from a snapshot taken on a
// space with the same topology. Every bank is validated before any is
// written: on error the space is unchanged.
func (s *Space) Restore(st SpaceState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.Pkg) != len(s.pkgRegs) || len(st.Core) != len(s.coreRegs) {
		return fmt.Errorf("msr: restore topology %d pkg / %d core banks, space has %d / %d",
			len(st.Pkg), len(st.Core), len(s.pkgRegs), len(s.coreRegs))
	}
	pkg := make([]pkgBank, len(st.Pkg))
	for i, b := range st.Pkg {
		if err := bankFrom(&pkg[i], b, PackageScope); err != nil {
			return fmt.Errorf("msr: restore package bank %d: %w", i, err)
		}
	}
	core := make([]coreBank, len(st.Core))
	for i, b := range st.Core {
		if err := bankFrom(&core[i], b, CoreScope); err != nil {
			return fmt.Errorf("msr: restore core bank %d: %w", i, err)
		}
	}
	s.pkgRegs, s.coreRegs = pkg, core
	s.reads, s.writes = st.Reads, st.Writes
	s.limGen.Store(st.LimGen)
	return nil
}
