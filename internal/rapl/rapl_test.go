package rapl

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
)

func newSpace(t *testing.T) *msr.Space {
	t.Helper()
	return msr.NewSpace(2, 4)
}

func newReader(t *testing.T, s *msr.Space) *Reader {
	t.Helper()
	r, err := New(s, s.Sockets(), s.FirstCPUOf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFirstSampleIsBaseline(t *testing.T) {
	s := newSpace(t)
	r := newReader(t, s)
	got, err := r.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCPUW() != 0 || got.Interval != 0 {
		t.Fatalf("first sample = %+v, want zero", got)
	}
}

func TestPowerFromCounterDeltas(t *testing.T) {
	s := newSpace(t)
	r := newReader(t, s)
	r.Sample(0)
	// Socket 0 consumes 100 J pkg, 20 J dram over 2 s; socket 1 half.
	const unitsPerJ = 16384
	s.Bump(0, msr.PkgEnergyStatus, 100*unitsPerJ)
	s.Bump(0, msr.DramEnergyStatus, 20*unitsPerJ)
	s.Bump(4, msr.PkgEnergyStatus, 50*unitsPerJ)
	s.Bump(4, msr.DramEnergyStatus, 10*unitsPerJ)
	got, err := r.Sample(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.PkgW[0]-50) > 1e-9 || math.Abs(got.PkgW[1]-25) > 1e-9 {
		t.Fatalf("PkgW = %v", got.PkgW)
	}
	if math.Abs(got.DramW[0]-10) > 1e-9 || math.Abs(got.DramW[1]-5) > 1e-9 {
		t.Fatalf("DramW = %v", got.DramW)
	}
	if math.Abs(got.TotalPkgW()-75) > 1e-9 {
		t.Fatalf("TotalPkgW = %v", got.TotalPkgW())
	}
	if math.Abs(got.TotalCPUW()-90) > 1e-9 {
		t.Fatalf("TotalCPUW = %v", got.TotalCPUW())
	}
	if math.Abs(r.TotalPkgJ()-150) > 1e-9 || math.Abs(r.TotalDramJ()-30) > 1e-9 {
		t.Fatalf("totals = %v / %v", r.TotalPkgJ(), r.TotalDramJ())
	}
}

// TestSampleZeroAlloc pins that sampling reuses the reader's slices,
// and that a reused slot is cleared: the baseline after a measured
// sample must read zero again.
func TestSampleZeroAlloc(t *testing.T) {
	s := newSpace(t)
	r := newReader(t, s)
	now := time.Duration(0)
	sample := func() {
		now += time.Second
		s.Bump(0, msr.PkgEnergyStatus, 16384)
		if _, err := r.Sample(now); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Fatalf("Sample allocates %v times per call, want 0", allocs)
	}
	if got, _ := r.Sample(now); got.PkgW[0] != 0 || got.PkgJ[0] != 0 {
		t.Fatalf("zero-interval sample kept stale values: %+v", got)
	}
}

func TestWraparoundHandled(t *testing.T) {
	s := newSpace(t)
	// Park the counter just below the wrap point before the baseline.
	s.Poke(0, msr.PkgEnergyStatus, 0xFFFFFFFF-100)
	r := newReader(t, s)
	r.Sample(0)
	s.Bump(0, msr.PkgEnergyStatus, 300) // wraps
	got, err := r.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wantJ := 300.0 / 16384
	if math.Abs(got.PkgJ[0]-wantJ) > 1e-9 {
		t.Fatalf("wrapped delta = %v J, want %v", got.PkgJ[0], wantJ)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	s := newSpace(t)
	r := newReader(t, s)
	s.FailReads(msr.ErrInjected)
	if _, err := r.Sample(time.Second); !errors.Is(err, msr.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestNewFailsWhenUnitsUnreadable(t *testing.T) {
	s := newSpace(t)
	s.FailReads(msr.ErrInjected)
	if _, err := New(s, 2, s.FirstCPUOf); err == nil {
		t.Fatal("New succeeded with unreadable units")
	}
	if _, err := New(s, 0, s.FirstCPUOf); err == nil {
		t.Fatal("New accepted zero sockets")
	}
}

func TestTDPWatts(t *testing.T) {
	s := newSpace(t)
	s.Poke(0, msr.PkgPowerInfo, uint64(270/0.125))
	r := newReader(t, s)
	tdp, err := r.TDPWatts(0)
	if err != nil {
		t.Fatal(err)
	}
	if tdp != 270 {
		t.Fatalf("TDP = %v, want 270", tdp)
	}
}
