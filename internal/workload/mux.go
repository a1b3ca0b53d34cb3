package workload

import (
	"fmt"
	"strings"
	"time"
)

// This file adds co-located (multi-tenant) workload generation: a Mux
// time-slices or concurrently shares several phase programs onto one
// node, mirroring the Runner surface so the harness can drive either
// interchangeably. Alongside the combined demand, the Mux publishes
// per-tenant SM/memory shares — the "per-process utilisation counter"
// surface energy attribution reads, with an explicit exclusive flag
// when one tenant has the device to itself (the DCGM distinction
// between hardware-measured and utilisation-estimated per-process
// energy).

// TenantShare is one tenant's instantaneous slice of the node: raw
// (unnormalised) SM and memory-demand weights, plus whether the tenant
// holds the device exclusively this step. The node retains the slice
// the Mux publishes; attribution normalises the weights itself.
type TenantShare struct {
	Tenant   string
	SMShare  float64
	MemShare float64
	// Exclusive marks the sole owner of the node for this step: energy
	// can be attributed exactly, no estimation needed.
	Exclusive bool
}

// TenantSpec binds one tenant's program into a colocation.
type TenantSpec struct {
	// Tenant is the accounting label; must be non-empty and unique
	// within the MuxSpec.
	Tenant  string
	Program *Program
	Seed    int64
	// GPUFrac is the tenant's fractional GPU allocation under the
	// Fractional policy (an MPS-style partition); 0 means an equal
	// share. Ignored under RoundRobin, where the owner of the quantum
	// has the whole device.
	GPUFrac float64
}

// MuxPolicy selects how tenants share the node.
type MuxPolicy int

const (
	// RoundRobin gives each live tenant the whole node for one quantum
	// at a time — time-slicing, so every step has an exclusive owner
	// and attribution is exact.
	RoundRobin MuxPolicy = iota
	// Fractional runs all tenants concurrently, each holding a
	// fraction of the GPU; demands superpose and attribution must fall
	// back to utilisation-share estimation whenever more than one
	// tenant is live.
	Fractional
)

// String implements fmt.Stringer.
func (p MuxPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Fractional:
		return "fractional"
	}
	return fmt.Sprintf("MuxPolicy(%d)", int(p))
}

// DefaultQuantum is the round-robin time slice when MuxSpec.Quantum is
// zero — 10 ms, a typical CFS-period-scale slice, long against the
// 1 ms engine step and short against workload phases.
const DefaultQuantum = 10 * time.Millisecond

// MuxSpec describes a colocation: the tenants, the sharing policy and
// the round-robin quantum.
type MuxSpec struct {
	Tenants []TenantSpec
	// Quantum is the RoundRobin slice length (0 = DefaultQuantum).
	Quantum time.Duration
	Policy  MuxPolicy
}

// Validate checks the colocation for construction errors.
func (s MuxSpec) Validate() error {
	if len(s.Tenants) < 2 {
		return fmt.Errorf("workload: colocation needs at least 2 tenants, got %d", len(s.Tenants))
	}
	if s.Policy != RoundRobin && s.Policy != Fractional {
		return fmt.Errorf("workload: unknown mux policy %d", int(s.Policy))
	}
	if s.Quantum < 0 {
		return fmt.Errorf("workload: negative mux quantum %v", s.Quantum)
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Tenant == "" {
			return fmt.Errorf("workload: tenant %d has no name", i)
		}
		if seen[t.Tenant] {
			return fmt.Errorf("workload: duplicate tenant %q", t.Tenant)
		}
		seen[t.Tenant] = true
		if t.Program == nil {
			return fmt.Errorf("workload: tenant %q has no program", t.Tenant)
		}
		if err := t.Program.Validate(); err != nil {
			return fmt.Errorf("workload: tenant %q: %w", t.Tenant, err)
		}
		if t.GPUFrac < 0 || t.GPUFrac > 1 {
			return fmt.Errorf("workload: tenant %q GPU fraction %v out of [0,1]", t.Tenant, t.GPUFrac)
		}
	}
	return nil
}

// Mux multiplexes several tenant programs onto one node. It mirrors
// the Runner surface (Step/Demand/Done/Elapsed/PhaseName/SetAttained)
// so the harness drives it identically, and additionally publishes
// per-tenant shares for energy attribution. Steady-state Step does not
// allocate.
type Mux struct {
	spec     MuxSpec
	quantum  time.Duration
	runners  []*Runner
	names    []string
	gpuFrac  []float64
	attained func() float64

	// owner is the index of the tenant holding the node this step
	// (-1 when demands superpose under Fractional with >1 live tenant).
	owner   int
	demand  Demand
	shares  []TenantShare
	memW    []float64 // live per-tenant memory weights (ledger split)
	prevMem []float64 // each tenant's published demand last step
	elapsed time.Duration
	done    bool
	label   string

	// phase-label cache: rebuilt only when the owner or its phase
	// changes, so PhaseName stays allocation-free per step.
	phaseOwner int
	phaseInner string
	phaseLabel string
}

// NewMux binds a colocation to a system with the given peak bandwidth.
func NewMux(spec MuxSpec, sysBWGBs float64) (*Mux, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Tenants)
	quantum := spec.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	m := &Mux{
		spec:       spec,
		quantum:    quantum,
		runners:    make([]*Runner, n),
		names:      make([]string, n),
		gpuFrac:    make([]float64, n),
		shares:     make([]TenantShare, n),
		memW:       make([]float64, n),
		prevMem:    make([]float64, n),
		owner:      -1,
		phaseOwner: -1,
		attained:   func() float64 { return 0 },
	}
	labels := make([]string, n)
	for i, t := range spec.Tenants {
		m.runners[i] = NewRunner(t.Program, sysBWGBs, t.Seed)
		m.names[i] = t.Tenant
		m.shares[i].Tenant = t.Tenant
		frac := t.GPUFrac
		if frac == 0 {
			frac = 1 / float64(n)
		}
		if spec.Policy == RoundRobin {
			frac = 1
		}
		m.gpuFrac[i] = frac
		labels[i] = t.Tenant + ":" + t.Program.Name
	}
	m.label = "colocated(" + strings.Join(labels, "+") + ")"
	m.installAttained()
	return m, nil
}

// installAttained wires each runner's service feedback: under
// RoundRobin the owner (the only runner stepped) sees the node's full
// attained throughput; under Fractional each tenant sees its
// demand-proportional share of it.
func (m *Mux) installAttained() {
	for i := range m.runners {
		idx := i
		if m.spec.Policy == RoundRobin {
			m.runners[i].SetAttained(func() float64 { return m.attained() })
			continue
		}
		m.runners[i].SetAttained(func() float64 {
			var total float64
			for _, d := range m.prevMem {
				total += d
			}
			if total <= 0 {
				return 0
			}
			return m.attained() * m.prevMem[idx] / total
		})
	}
}

// SetAttained installs the node feedback: the memory throughput (GB/s)
// actually served during the previous step.
func (m *Mux) SetAttained(fn func() float64) {
	if fn == nil {
		panic("workload: nil attained func")
	}
	m.attained = fn
}

// Name is the colocation's display label, e.g.
// "colocated(tenantA:unet+tenantB:srad)".
func (m *Mux) Name() string { return m.label }

// Tenants returns the tenant names in spec order.
func (m *Mux) Tenants() []string { return m.names }

// Shares returns the live per-tenant share slice. The Mux mutates it
// in place each step; hand it to node.SetTenantShares so the node
// exposes it as its per-tenant utilisation counter surface.
func (m *Mux) Shares() []TenantShare { return m.shares }

// MemWeights returns the live per-tenant memory-traffic weights, the
// split the waste ledger applies to uncore energy. Mutated in place
// each step.
func (m *Mux) MemWeights() []float64 { return m.memW }

// Done reports whether every tenant's program has completed.
func (m *Mux) Done() bool { return m.done }

// Elapsed returns virtual time consumed so far (the colocation
// makespan, not per-tenant scheduled time).
func (m *Mux) Elapsed() time.Duration { return m.elapsed }

// TenantElapsed returns the virtual time tenant i actually executed —
// under RoundRobin, only its scheduled quanta.
func (m *Mux) TenantElapsed(i int) time.Duration { return m.runners[i].Elapsed() }

// TenantDone reports whether tenant i's program has completed.
func (m *Mux) TenantDone(i int) bool { return m.runners[i].Done() }

// Demand returns the combined demand published by the last Step.
func (m *Mux) Demand() Demand { return m.demand }

// NominalDuration is the colocation's serialised nominal runtime — the
// sum of tenant nominal durations, the horizon-sizing bound for both
// policies (time-slicing serialises; concurrent tenants contend for
// bandwidth and in the worst case also serialise).
func (m *Mux) NominalDuration() time.Duration {
	var d time.Duration
	for _, r := range m.runners {
		d += r.Program().NominalDuration()
	}
	return d
}

// PhaseName labels the active execution region for the waste ledger:
// "tenant:phase" for an exclusive owner, "colocated" while demands
// superpose, "done" after every tenant finished.
func (m *Mux) PhaseName() string {
	if m.done {
		return "done"
	}
	if m.owner < 0 {
		return "colocated"
	}
	inner := m.runners[m.owner].PhaseName()
	if m.owner != m.phaseOwner || inner != m.phaseInner {
		m.phaseOwner = m.owner
		m.phaseInner = inner
		m.phaseLabel = m.names[m.owner] + ":" + inner
	}
	return m.phaseLabel
}

// Step implements sim.Component: advance the scheduled tenant(s) and
// publish the combined demand plus per-tenant shares.
func (m *Mux) Step(now, dt time.Duration) {
	if m.done {
		m.demand = Demand{}
		return
	}
	m.elapsed += dt
	live := 0
	for _, r := range m.runners {
		if !r.Done() {
			live++
		}
	}
	if live == 0 {
		m.finishStep()
		return
	}
	if m.spec.Policy == RoundRobin || live == 1 {
		m.stepExclusive(now, dt, live)
	} else {
		m.stepFractional(now, dt)
	}
	if m.allDone() {
		m.finishStep()
	}
}

// stepExclusive runs the quantum owner alone: round-robin proper, or
// the last live tenant of a fractional colocation (which then has the
// device to itself and is attributed exactly, like a lone process in
// the DCGM accounting).
func (m *Mux) stepExclusive(now, dt time.Duration, live int) {
	// The owner is a pure function of the quantum slot index and the
	// live set, so scheduling is deterministic and a finished tenant
	// is skipped from the next step on without extra bookkeeping.
	slot := int64(now / m.quantum)
	k := int(slot % int64(live))
	owner := -1
	for i, r := range m.runners {
		if r.Done() {
			continue
		}
		if k == 0 {
			owner = i
			break
		}
		k--
	}
	m.owner = owner
	r := m.runners[owner]
	r.Step(now, dt)
	m.demand = r.Demand()
	for i := range m.shares {
		m.shares[i].SMShare = 0
		m.shares[i].MemShare = 0
		m.shares[i].Exclusive = false
		m.memW[i] = 0
		m.prevMem[i] = 0
	}
	if !r.Done() {
		m.shares[owner].SMShare = m.demand.GPUSMUtil
		m.shares[owner].MemShare = m.demand.MemGBs
	}
	// The owner is exclusive even when idle this step: whatever the
	// node burns during the quantum is its bill.
	m.shares[owner].Exclusive = true
	m.memW[owner] = 1
	m.prevMem[owner] = m.demand.MemGBs
}

// stepFractional advances every live tenant and superposes demands.
func (m *Mux) stepFractional(now, dt time.Duration) {
	m.owner = -1
	var mem, cpu, sm, gm float64
	var betaW, skewW, intensW float64
	for i, r := range m.runners {
		if r.Done() {
			m.shares[i].SMShare = 0
			m.shares[i].MemShare = 0
			m.shares[i].Exclusive = false
			m.memW[i] = 0
			m.prevMem[i] = 0
			continue
		}
		r.Step(now, dt)
		d := r.Demand()
		tsm := d.GPUSMUtil * m.gpuFrac[i]
		tgm := d.GPUMemUtil * m.gpuFrac[i]
		mem += d.MemGBs
		cpu += d.CPUBusyCores
		sm += tsm
		gm += tgm
		betaW += d.MemBoundFrac * d.MemGBs
		skewW += d.NUMASkew * d.MemGBs
		ci := d.CPUIntensity
		if ci == 0 {
			ci = 1
		}
		intensW += ci * d.CPUBusyCores
		m.shares[i].SMShare = tsm
		m.shares[i].MemShare = d.MemGBs
		m.shares[i].Exclusive = false
		m.memW[i] = d.MemGBs
		m.prevMem[i] = d.MemGBs
	}
	if sm > 1 {
		sm = 1
	}
	if gm > 1 {
		gm = 1
	}
	m.demand = Demand{
		CPUBusyCores: cpu,
		MemGBs:       mem,
		GPUSMUtil:    sm,
		GPUMemUtil:   gm,
	}
	if mem > 0 {
		m.demand.MemBoundFrac = betaW / mem
		m.demand.NUMASkew = skewW / mem
	}
	if cpu > 0 {
		m.demand.CPUIntensity = intensW / cpu
	}
}

// allDone reports whether every runner has completed.
func (m *Mux) allDone() bool {
	for _, r := range m.runners {
		if !r.Done() {
			return false
		}
	}
	return true
}

// finishStep transitions the Mux to its terminal state. The share and
// weight surfaces are left as the last scheduled step published them:
// the engine's attribution samplers run after this component within the
// same step, and the step's energy belongs to whoever just ran — not to
// an even split over a zeroed surface.
func (m *Mux) finishStep() {
	m.done = true
	m.owner = -1
	m.demand = Demand{}
}

// ---- Colocation presets ----

// mustByName resolves a catalog program or panics (presets are static).
func mustByName(name string) *Program {
	p, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("workload: preset references unknown program %q", name))
	}
	return p
}

// NoisyNeighbor is the canonical contention scenario: a steady
// memory-bound victim time-sliced against a bursty aggressor.
func NoisyNeighbor() MuxSpec {
	return MuxSpec{
		Policy: RoundRobin,
		Tenants: []TenantSpec{
			{Tenant: "victim", Program: mustByName("particlefilter_naive"), Seed: 11},
			{Tenant: "aggressor", Program: mustByName("srad"), Seed: 13},
		},
	}
}

// FractionalGPU shares the node concurrently under MPS-style GPU
// partitions: a 70 % compute tenant against a 30 % background tenant.
// With both live, attribution is estimated from utilisation shares.
func FractionalGPU() MuxSpec {
	return MuxSpec{
		Policy: Fractional,
		Tenants: []TenantSpec{
			{Tenant: "primary", Program: mustByName("gemm"), Seed: 17, GPUFrac: 0.7},
			{Tenant: "background", Program: mustByName("bfs"), Seed: 19, GPUFrac: 0.3},
		},
	}
}

// BurstColocation time-slices two burst-heavy applications with a
// coarser quantum, the worst case for quantum-boundary attribution.
func BurstColocation() MuxSpec {
	return MuxSpec{
		Policy:  RoundRobin,
		Quantum: 25 * time.Millisecond,
		Tenants: []TenantSpec{
			{Tenant: "burst-a", Program: mustByName("srad"), Seed: 23},
			{Tenant: "burst-b", Program: mustByName("pathfinder"), Seed: 29},
		},
	}
}
