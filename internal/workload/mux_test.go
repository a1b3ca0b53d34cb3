package workload

import (
	"testing"
	"time"
)

// Owner returns the index of the tenant holding the node exclusively
// this step, or -1 when demands superpose.
func (m *Mux) Owner() int { return m.owner }

func muxSpec2(policy MuxPolicy) MuxSpec {
	return MuxSpec{
		Policy: policy,
		Tenants: []TenantSpec{
			{Tenant: "a", Program: mustByName("srad"), Seed: 1},
			{Tenant: "b", Program: mustByName("pathfinder"), Seed: 2},
		},
	}
}

func TestMuxSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MuxSpec)
	}{
		{"one tenant", func(s *MuxSpec) { s.Tenants = s.Tenants[:1] }},
		{"no tenants", func(s *MuxSpec) { s.Tenants = nil }},
		{"bad policy", func(s *MuxSpec) { s.Policy = MuxPolicy(7) }},
		{"negative quantum", func(s *MuxSpec) { s.Quantum = -time.Millisecond }},
		{"empty name", func(s *MuxSpec) { s.Tenants[0].Tenant = "" }},
		{"duplicate name", func(s *MuxSpec) { s.Tenants[1].Tenant = "a" }},
		{"nil program", func(s *MuxSpec) { s.Tenants[1].Program = nil }},
		{"gpufrac high", func(s *MuxSpec) { s.Tenants[0].GPUFrac = 1.5 }},
		{"gpufrac negative", func(s *MuxSpec) { s.Tenants[0].GPUFrac = -0.1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := muxSpec2(RoundRobin)
			tc.mut(&spec)
			if err := spec.Validate(); err == nil {
				t.Fatalf("Validate accepted a spec with %s", tc.name)
			}
			if _, err := NewMux(spec, 400); err == nil {
				t.Fatalf("NewMux accepted a spec with %s", tc.name)
			}
		})
	}
	if err := muxSpec2(Fractional).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestMuxRoundRobinExclusive pins the time-slicing contract: every step
// has exactly one owner, the owner is marked Exclusive, and ownership
// alternates on quantum boundaries while both tenants are live.
func TestMuxRoundRobinExclusive(t *testing.T) {
	spec := muxSpec2(RoundRobin)
	m, err := NewMux(spec, 400)
	if err != nil {
		t.Fatal(err)
	}
	dt := time.Millisecond
	seen := map[int]bool{}
	for now := time.Duration(0); now < 100*time.Millisecond; now += dt {
		m.Step(now, dt)
		owner := m.Owner()
		if owner < 0 {
			t.Fatalf("t=%v: round-robin step has no owner", now)
		}
		seen[owner] = true
		shares := m.Shares()
		for i := range shares {
			if (i == owner) != shares[i].Exclusive {
				t.Fatalf("t=%v: tenant %d Exclusive=%v with owner %d", now, i, shares[i].Exclusive, owner)
			}
			if i != owner && (shares[i].SMShare != 0 || shares[i].MemShare != 0) {
				t.Fatalf("t=%v: non-owner %d has nonzero shares", now, i)
			}
		}
		wantOwner := int(int64(now/DefaultQuantum) % 2)
		if owner != wantOwner {
			t.Fatalf("t=%v: owner %d, want slot owner %d", now, owner, wantOwner)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("only tenants %v were ever scheduled", seen)
	}
}

// TestMuxDeterminism: two muxes from the same spec produce identical
// demand streams.
func TestMuxDeterminism(t *testing.T) {
	for _, policy := range []MuxPolicy{RoundRobin, Fractional} {
		a, err := NewMux(muxSpec2(policy), 400)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMux(muxSpec2(policy), 400)
		if err != nil {
			t.Fatal(err)
		}
		dt := time.Millisecond
		for now := time.Duration(0); now < 200*time.Millisecond; now += dt {
			a.Step(now, dt)
			b.Step(now, dt)
			if a.Demand() != b.Demand() {
				t.Fatalf("%v t=%v: demand diverged: %+v vs %+v", policy, now, a.Demand(), b.Demand())
			}
			if a.Owner() != b.Owner() {
				t.Fatalf("%v t=%v: owner diverged", policy, now)
			}
		}
	}
}

// TestMuxFractionalShares pins the concurrent policy: no owner while
// both tenants are live, superposed demand, GPU fractions applied, and
// the live share surface carrying each tenant's raw weights.
func TestMuxFractionalShares(t *testing.T) {
	spec := muxSpec2(Fractional)
	spec.Tenants[0].GPUFrac = 0.7
	spec.Tenants[1].GPUFrac = 0.3
	m, err := NewMux(spec, 400)
	if err != nil {
		t.Fatal(err)
	}
	dt := time.Millisecond
	m.Step(0, dt)
	if m.Owner() != -1 {
		t.Fatalf("fractional step with both tenants live has owner %d", m.Owner())
	}
	if m.PhaseName() != "colocated" {
		t.Fatalf("PhaseName = %q, want colocated", m.PhaseName())
	}
	shares := m.Shares()
	var mem, memShare float64
	for i := range shares {
		if shares[i].Exclusive {
			t.Fatalf("tenant %d exclusive under fractional with 2 live", i)
		}
		memShare += shares[i].MemShare
	}
	mem = m.Demand().MemGBs
	if memShare != mem {
		t.Fatalf("sum of MemShare %v != combined demand MemGBs %v", memShare, mem)
	}
	if got := m.Demand().GPUSMUtil; got > 1 {
		t.Fatalf("combined SM util %v > 1", got)
	}
}

// TestMuxRunsToCompletion: both policies finish every tenant within the
// serialised nominal horizon, then publish zero demand and "done".
func TestMuxRunsToCompletion(t *testing.T) {
	for _, policy := range []MuxPolicy{RoundRobin, Fractional} {
		m, err := NewMux(muxSpec2(policy), 400)
		if err != nil {
			t.Fatal(err)
		}
		m.SetAttained(func() float64 { return 400 })
		dt := time.Millisecond
		horizon := m.NominalDuration()*4 + 10*time.Second
		var now time.Duration
		for ; now < horizon && !m.Done(); now += dt {
			m.Step(now, dt)
		}
		if !m.Done() {
			t.Fatalf("%v: not done after %v", policy, now)
		}
		for i := range m.Tenants() {
			if !m.TenantDone(i) {
				t.Fatalf("%v: tenant %d not done", policy, i)
			}
			if m.TenantElapsed(i) <= 0 {
				t.Fatalf("%v: tenant %d has no scheduled time", policy, i)
			}
		}
		m.Step(now, dt)
		if m.Demand() != (Demand{}) {
			t.Fatalf("%v: done mux still publishes demand %+v", policy, m.Demand())
		}
		if m.PhaseName() != "done" {
			t.Fatalf("%v: PhaseName = %q after completion", policy, m.PhaseName())
		}
	}
}

// TestMuxPhaseName pins the owner-qualified phase label under
// round-robin ("tenant:phase").
func TestMuxPhaseName(t *testing.T) {
	m, err := NewMux(muxSpec2(RoundRobin), 400)
	if err != nil {
		t.Fatal(err)
	}
	dt := time.Millisecond
	m.Step(0, dt)
	name := m.PhaseName()
	want := m.Tenants()[m.Owner()] + ":"
	if len(name) <= len(want) || name[:len(want)] != want {
		t.Fatalf("PhaseName = %q, want %q prefix", name, want)
	}
}

// TestMuxStepNoAlloc pins the colocated zero-alloc tick contract for
// both policies.
func TestMuxStepNoAlloc(t *testing.T) {
	for _, policy := range []MuxPolicy{RoundRobin, Fractional} {
		m, err := NewMux(muxSpec2(policy), 400)
		if err != nil {
			t.Fatal(err)
		}
		dt := time.Millisecond
		now := time.Duration(0)
		for ; now < 50*time.Millisecond; now += dt {
			m.Step(now, dt)
		}
		avg := testing.AllocsPerRun(200, func() {
			m.Step(now, dt)
			_ = m.PhaseName()
			now += dt
		})
		if avg != 0 {
			t.Fatalf("%v: steady-state Step allocates %.1f times", policy, avg)
		}
	}
}

func TestMuxPresets(t *testing.T) {
	for name, spec := range map[string]MuxSpec{
		"noisy-neighbor": NoisyNeighbor(),
		"fractional-gpu": FractionalGPU(),
		"burst":          BurstColocation(),
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if _, err := NewMux(spec, 400); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
}
