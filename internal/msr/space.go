package msr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Device is the access interface both runtimes use. cpu addresses a
// logical CPU; registers with package scope may be read through any CPU
// belonging to the package, as on real hardware.
type Device interface {
	Read(cpu int, reg uint32) (uint64, error)
	Write(cpu int, reg uint32, val uint64) error
}

// Errors returned by Space (and used for failure injection in tests).
var (
	ErrBadCPU     = errors.New("msr: cpu index out of range")
	ErrUnknownReg = errors.New("msr: unknown register")
	ErrReadOnly   = errors.New("msr: register is read-only")
	ErrInjected   = errors.New("msr: injected fault")
)

// Scope classifies a register as per-core or per-package.
type Scope int

const (
	// PackageScope registers have one instance per socket.
	PackageScope Scope = iota
	// CoreScope registers have one instance per logical CPU.
	CoreScope
)

// Register banks are fixed slot arrays, not maps: every modelled
// register has one slot in its scope's bank. Slots are numbered in
// register-address order, so walking a bank by slot visits registers
// sorted by address.
const (
	slotRaplPowerUnit = iota
	slotPkgPowerLimit
	slotPkgEnergyStatus
	slotPkgPowerInfo
	slotDramEnergyStatus
	slotUncoreRatioLimit
	slotUncorePerfStatus
	pkgSlots
)

const (
	slotMperf = iota
	slotAperf
	slotFixedCtrInstRetired
	slotFixedCtrCPUCycles
	coreSlots
)

// pkgSlotRegs and coreSlotRegs name the register held in each slot.
var (
	pkgSlotRegs = [pkgSlots]uint32{RaplPowerUnit, PkgPowerLimit, PkgEnergyStatus,
		PkgPowerInfo, DramEnergyStatus, UncoreRatioLimit, UncorePerfStatus}
	coreSlotRegs = [coreSlots]uint32{Mperf, Aperf, FixedCtrInstRetired, FixedCtrCPUCycles}
)

// regSlot maps a modelled register to its hardware scope and its slot
// in that scope's bank.
func regSlot(reg uint32) (Scope, int, bool) {
	switch reg {
	case RaplPowerUnit:
		return PackageScope, slotRaplPowerUnit, true
	case PkgPowerLimit:
		return PackageScope, slotPkgPowerLimit, true
	case PkgEnergyStatus:
		return PackageScope, slotPkgEnergyStatus, true
	case PkgPowerInfo:
		return PackageScope, slotPkgPowerInfo, true
	case DramEnergyStatus:
		return PackageScope, slotDramEnergyStatus, true
	case UncoreRatioLimit:
		return PackageScope, slotUncoreRatioLimit, true
	case UncorePerfStatus:
		return PackageScope, slotUncorePerfStatus, true
	case Mperf:
		return CoreScope, slotMperf, true
	case Aperf:
		return CoreScope, slotAperf, true
	case FixedCtrInstRetired:
		return CoreScope, slotFixedCtrInstRetired, true
	case FixedCtrCPUCycles:
		return CoreScope, slotFixedCtrCPUCycles, true
	}
	return 0, 0, false
}

// bank is one register bank: a value per slot and a bit per slot
// marking it ever set. A register never set reads as zero and is absent
// from State; one set to zero is present.
type bank[V [pkgSlots]uint64 | [coreSlots]uint64] struct {
	val V
	set uint8 // bit i: slot i has been set
}

type (
	pkgBank  = bank[[pkgSlots]uint64]
	coreBank = bank[[coreSlots]uint64]
)

// cell is one register's slot inside its bank.
type cell struct {
	val *uint64
	set *uint8
	bit uint8
}

func cellOf[V [pkgSlots]uint64 | [coreSlots]uint64](b *bank[V], slot int) cell {
	return cell{val: &b.val[slot], set: &b.set, bit: 1 << slot}
}

func (c cell) store(v uint64) {
	*c.val = v
	*c.set |= c.bit
}

// readOnly reports registers that reject writes from software.
func readOnly(reg uint32) bool {
	switch reg {
	case UncorePerfStatus, RaplPowerUnit, PkgPowerInfo,
		PkgEnergyStatus, DramEnergyStatus:
		return true
	}
	return false
}

// Space is the simulated MSR register file for one node: one register
// bank per socket for package-scope registers and one per logical CPU
// for core-scope registers. It is safe for concurrent use.
//
// The simulator backing a node updates counters through the Poke/Bump
// methods (which bypass the read-only check, as hardware does); runtimes
// go through Read/Write.
type Space struct {
	mu          sync.Mutex
	sockets     int
	cpusPerSock int
	pkgRegs     []pkgBank  // per socket
	coreRegs    []coreBank // per cpu

	reads, writes uint64 // access counters for overhead accounting

	// limGen counts writes (Write or Poke) to the software-controlled
	// limit registers (UncoreRatioLimit, PkgPowerLimit). The node polls
	// it lock-free every step and only re-reads and re-decodes the
	// limits when the generation moved — limits change a few times per
	// second while steps happen a thousand times per second.
	limGen atomic.Uint64

	failRead  error // injected fault for Read
	failWrite error // injected fault for Write
}

// limitReg reports registers whose writes bump the limit generation.
func limitReg(reg uint32) bool {
	return reg == UncoreRatioLimit || reg == PkgPowerLimit
}

// NewSpace builds a register space for sockets × cpusPerSocket logical
// CPUs, with RAPL units and uncore limits initialised to defaults.
func NewSpace(sockets, cpusPerSocket int) *Space {
	if sockets <= 0 || cpusPerSocket <= 0 {
		panic(fmt.Sprintf("msr: invalid topology %d×%d", sockets, cpusPerSocket))
	}
	s := &Space{
		sockets:     sockets,
		cpusPerSock: cpusPerSocket,
		pkgRegs:     make([]pkgBank, sockets),
		coreRegs:    make([]coreBank, sockets*cpusPerSocket),
	}
	for i := range s.pkgRegs {
		cellOf(&s.pkgRegs[i], slotRaplPowerUnit).store(
			EncodePowerUnit(DefaultPowerUnitExp, DefaultEnergyUnitExp, DefaultTimeUnitExp))
	}
	return s
}

// Sockets returns the socket count.
func (s *Space) Sockets() int { return s.sockets }

// CPUs returns the logical CPU count.
func (s *Space) CPUs() int { return s.sockets * s.cpusPerSock }

// SocketOf returns the socket owning a logical CPU.
func (s *Space) SocketOf(cpu int) int { return cpu / s.cpusPerSock }

// FirstCPUOf returns the first logical CPU of a socket — the CPU a
// runtime uses to address that package's MSRs (wrmsr -p N).
func (s *Space) FirstCPUOf(socket int) int { return socket * s.cpusPerSock }

// Read implements Device.
func (s *Space) Read(cpu int, reg uint32) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failRead != nil {
		return 0, s.failRead
	}
	c, err := s.cell(cpu, reg)
	if err != nil {
		return 0, err
	}
	s.reads++
	return *c.val, nil
}

// Write implements Device. Writes to read-only registers fail, as on
// real hardware.
func (s *Space) Write(cpu int, reg uint32, val uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failWrite != nil {
		return s.failWrite
	}
	if readOnly(reg) {
		return fmt.Errorf("%w: %#x", ErrReadOnly, reg)
	}
	c, err := s.cell(cpu, reg)
	if err != nil {
		return err
	}
	s.writes++
	c.store(val)
	if limitReg(reg) {
		s.limGen.Add(1)
	}
	return nil
}

// Poke sets a register from the hardware side, bypassing the read-only
// check and access accounting. cpu selects the bank as in Read.
func (s *Space) Poke(cpu int, reg uint32, val uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.cell(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: Poke(%d, %#x): %v", cpu, reg, err))
	}
	c.store(val)
	if limitReg(reg) {
		s.limGen.Add(1)
	}
}

// LimitGen returns the current limit-write generation: it advances on
// every Write or Poke to UncoreRatioLimit or PkgPowerLimit. Readers
// that cache decoded limits invalidate on a generation change. Safe to
// call without holding any lock.
func (s *Space) LimitGen() uint64 { return s.limGen.Load() }

// Peek reads a register from the hardware side without accounting.
func (s *Space) Peek(cpu int, reg uint32) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.cell(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: Peek(%d, %#x): %v", cpu, reg, err))
	}
	return *c.val
}

// Bump adds delta to a counter register (hardware side), wrapping
// 32-bit energy-status counters at their modulus.
func (s *Space) Bump(cpu int, reg uint32, delta uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.cell(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: Bump(%d, %#x): %v", cpu, reg, err))
	}
	v := *c.val + delta
	if reg == PkgEnergyStatus || reg == DramEnergyStatus {
		v &= EnergyCounterMask
	}
	c.store(v)
}

// BumpEnergy adds deltas to both RAPL energy-status counters of cpu's
// package under a single lock acquisition — the node publishes package
// and DRAM energy every simulation step, and two Bump calls per socket
// per tick would double the lock traffic. Zero deltas are skipped
// without touching the lock.
func (s *Space) BumpEnergy(cpu int, pkgDelta, dramDelta uint64) {
	if pkgDelta == 0 && dramDelta == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cpu < 0 || cpu >= s.CPUs() {
		panic(fmt.Sprintf("msr: BumpEnergy(%d): %v", cpu, ErrBadCPU))
	}
	b := &s.pkgRegs[s.SocketOf(cpu)]
	if pkgDelta != 0 {
		c := cellOf(b, slotPkgEnergyStatus)
		c.store((*c.val + pkgDelta) & EnergyCounterMask)
	}
	if dramDelta != 0 {
		c := cellOf(b, slotDramEnergyStatus)
		c.store((*c.val + dramDelta) & EnergyCounterMask)
	}
}

// AccessCounts returns cumulative successful Read and Write counts.
func (s *Space) AccessCounts() (reads, writes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.writes
}

// ResetAccessCounts zeroes the access counters.
func (s *Space) ResetAccessCounts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads, s.writes = 0, 0
}

// FailReads injects err into all subsequent Read calls (nil clears).
func (s *Space) FailReads(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failRead = err
}

// FailWrites injects err into all subsequent Write calls (nil clears).
func (s *Space) FailWrites(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failWrite = err
}

// cell resolves the register slot for (cpu, reg). Caller holds mu.
func (s *Space) cell(cpu int, reg uint32) (cell, error) {
	if cpu < 0 || cpu >= s.CPUs() {
		return cell{}, fmt.Errorf("%w: %d", ErrBadCPU, cpu)
	}
	scope, slot, ok := regSlot(reg)
	if !ok {
		return cell{}, fmt.Errorf("%w: %#x", ErrUnknownReg, reg)
	}
	if scope == PackageScope {
		return cellOf(&s.pkgRegs[s.SocketOf(cpu)], slot), nil
	}
	return cellOf(&s.coreRegs[cpu], slot), nil
}
