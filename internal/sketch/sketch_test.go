package sketch

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// expose renders the complete observable state of a sketch as bytes:
// every non-empty bucket, the summary, and the derived sum. Two
// sketches with identical exposition are indistinguishable to every
// downstream consumer (obs histograms, report columns, JSON status).
func expose(t *testing.T, s *Sketch) []byte {
	t.Helper()
	var out []byte
	s.Buckets(func(v float64, c uint64) {
		out = append(out, fmt.Sprintf("%x %d\n", math.Float64bits(v), c)...)
	})
	sum, err := json.Marshal(s.Summarize())
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	out = append(out, sum...)
	out = append(out, fmt.Sprintf("\nsum=%x", math.Float64bits(s.Sum()))...)
	return out
}

func TestEmptySketch(t *testing.T) {
	s := New()
	if s.Count() != 0 {
		t.Fatalf("empty count = %d", s.Count())
	}
	if _, ok := s.Quantile(0.5); ok {
		t.Fatal("empty sketch reported a quantile")
	}
	sum := s.Summarize()
	if sum != (Summary{}) {
		t.Fatalf("empty summary = %+v, want zero", sum)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatalf("empty summary not JSON-safe: %v", err)
	}
	if string(b) == "" {
		t.Fatal("empty marshal")
	}
}

func TestZeroAndNegativeSamples(t *testing.T) {
	s := New()
	s.Add(0)
	s.Add(-3.5)
	s.Add(1e-12)
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	q, ok := s.Quantile(0.5)
	if !ok || q != -3.5 {
		// The zero bucket reports 0 clamped into [min,max]; with
		// max < 0 it pins to the exact max... min is -3.5, max 1e-12.
		// rank 1 of {-3.5, 0, 1e-12} → zero bucket → clamp(0) = 0.
		if q != 0 {
			t.Fatalf("median of zero-bucket samples = %v, want 0", q)
		}
	}
	if s.Min() != -3.5 || s.Max() != 1e-12 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestNaNIgnored(t *testing.T) {
	s := New()
	s.Add(math.NaN())
	s.Add(1)
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1 (NaN ignored)", s.Count())
	}
	if q, _ := s.Quantile(1); q != 1 {
		t.Fatalf("max quantile = %v, want 1", q)
	}
}

func TestClampAboveRange(t *testing.T) {
	s := New()
	s.Add(5e14) // above MaxValue: clamps into the last bucket
	if s.Count() != 1 {
		t.Fatalf("count = %d", s.Count())
	}
	q, _ := s.Quantile(0.5)
	if q != s.Max() {
		t.Fatalf("clamped sample quantile = %v, want exact max %v", q, s.Max())
	}
}

// TestQuantileRelativeError checks the sketch's contract: reported
// quantiles are within Alpha relative error of an exact sample.
func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		samples := make([]float64, n)
		s := New()
		for i := range samples {
			// Log-uniform over ~9 decades, the shape of power/waste data.
			v := math.Exp(rng.Float64()*20 - 8)
			samples[i] = v
			s.Add(v)
		}
		sort.Float64s(samples)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			got, ok := s.Quantile(q)
			if !ok {
				t.Fatal("non-empty sketch reported empty")
			}
			exact := samples[int(q*float64(n-1))]
			if relErr := math.Abs(got-exact) / exact; relErr > Alpha+1e-12 {
				t.Fatalf("trial %d n=%d q=%v: got %v want %v (rel err %v > %v)",
					trial, n, q, got, exact, relErr, Alpha)
			}
		}
	}
}

func TestMinMaxExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 500
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		s.Add(v)
	}
	if s.Min() != lo || s.Max() != hi {
		t.Fatalf("min/max = %v/%v, want exact %v/%v", s.Min(), s.Max(), lo, hi)
	}
	if q0, _ := s.Quantile(0); q0 != lo {
		t.Fatalf("q0 = %v, want exact min %v", q0, lo)
	}
	if q1, _ := s.Quantile(1); q1 != hi {
		t.Fatalf("q1 = %v, want exact max %v", q1, hi)
	}
}

// mergeTree folds the given leaf sketches with a random binary merge
// tree: repeatedly pick two random entries, merge one into the other,
// until a single sketch remains.
func mergeTree(rng *rand.Rand, leaves []*Sketch) *Sketch {
	pool := append([]*Sketch(nil), leaves...)
	for len(pool) > 1 {
		i := rng.Intn(len(pool))
		j := rng.Intn(len(pool) - 1)
		if j >= i {
			j++
		}
		pool[i].Merge(pool[j])
		pool[j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return pool[0]
}

// TestMergeOrderInvariance is the property at the heart of the fleet
// byte-identity contract: for random sample sets split into random
// shard counts and merged by random merge trees, the exposition bytes
// are identical to folding every sample into one sketch.
func TestMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(3000)
		samples := make([]float64, n)
		ref := New()
		for i := range samples {
			var v float64
			switch rng.Intn(10) {
			case 0:
				v = 0
			case 1:
				v = -rng.Float64()
			case 2:
				v = math.Exp(rng.Float64()*60 - 30) // extreme decades
			default:
				v = rng.Float64() * 1000
			}
			samples[i] = v
			ref.Add(v)
		}
		want := expose(t, ref)

		for rep := 0; rep < 4; rep++ {
			shards := 1 + rng.Intn(12)
			leaves := make([]*Sketch, shards)
			for i := range leaves {
				leaves[i] = New()
			}
			// Random assignment of samples to shards, random fold order
			// within each shard (shuffle a copy first).
			perm := rng.Perm(n)
			for _, idx := range perm {
				leaves[rng.Intn(shards)].Add(samples[idx])
			}
			merged := mergeTree(rng, leaves)
			if got := expose(t, merged); string(got) != string(want) {
				t.Fatalf("trial %d rep %d (shards=%d): merged exposition differs from reference\n got: %s\nwant: %s",
					trial, rep, shards, got, want)
			}
		}
	}
}

func TestMergeNilAndEmpty(t *testing.T) {
	s := New()
	s.Add(2)
	before := expose(t, s)
	s.Merge(nil)
	s.Merge(New())
	if got := expose(t, s); string(got) != string(before) {
		t.Fatal("merging nil/empty changed the sketch")
	}
}

func TestReset(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	s.Reset()
	fresh := New()
	if got, want := expose(t, s), expose(t, fresh); string(got) != string(want) {
		t.Fatal("Reset did not restore the empty exposition")
	}
}

func TestAddZeroAlloc(t *testing.T) {
	s := New()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(123.456)
		s.Add(0)
		s.Add(7.2e9)
		s.Add(5e14)
		s.Add(math.Inf(1))
		s.Add(math.NaN())
	})
	if allocs != 0 {
		t.Fatalf("Add allocates: %v allocs/op", allocs)
	}
}

func TestMergeZeroAlloc(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 64; i++ {
		b.Add(float64(i) * 1.7)
	}
	allocs := testing.AllocsPerRun(100, func() { a.Merge(b) })
	if allocs != 0 {
		t.Fatalf("Merge allocates: %v allocs/op", allocs)
	}
}

// BenchmarkHotPathSketchAdd pins the fold cost inside the fleet tick;
// cmd/benchgate holds it to 0 allocs/op via BENCH_hotpath.json.
func BenchmarkHotPathSketchAdd(b *testing.B) {
	s := New()
	b.ReportAllocs()
	// Exclude New()'s bucket-array allocation: at -benchtime=1x the
	// CI gate divides by N=1, so setup cost must not count as per-op.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i%977) + 0.5)
	}
}
