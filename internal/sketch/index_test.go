package sketch

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refOffset is the counts offset Add assigned before the lookup
// tables: logIndex clamped into the layout. +Inf goes to the last
// bucket, as the package doc has always stated; logIndex itself
// cannot place it, because int(+Inf) is MinInt64 on amd64 and
// MaxInt64 on arm64. ok is false for samples the zero bucket takes.
func refOffset(v float64) (off int, ok bool) {
	if v < MinValue {
		return 0, false
	}
	if math.IsInf(v, 1) {
		return maxIndex - minIndex, true
	}
	idx := logIndex(v)
	if idx < minIndex {
		idx = minIndex
	} else if idx > maxIndex {
		idx = maxIndex
	}
	return idx - minIndex, true
}

// checkOffset fails t unless the table lookup agrees with refOffset.
func checkOffset(t testing.TB, v float64) {
	want, ok := refOffset(v)
	if !ok {
		return
	}
	if got := offset(v); got != want {
		t.Fatalf("offset(%v = %#x) = %d, logIndex gives %d", v, math.Float64bits(v), got, want)
	}
}

// TestBucketIndexMatchesLog checks the lookup against logIndex on
// every float within ±window ulps of every bucket boundary (where the
// package doc's error bound leaves the computed ceiling unproven), on
// log-uniform random samples over the whole range and past its top,
// and on the edges of the float line.
func TestBucketIndexMatchesLog(t *testing.T) {
	New() // builds the tables
	window, random := uint64(4096), 20_000_000
	if testing.Short() {
		window, random = 256, 1_000_000
	}
	checked := 0
	for _, u := range upper {
		bits := math.Float64bits(u)
		for b := bits - window; b <= bits+window; b++ {
			checkOffset(t, math.Float64frombits(b))
		}
		checked += int(2*window + 1)
	}
	t.Logf("checked %d floats in the boundary windows", checked)

	rng := rand.New(rand.NewSource(15))
	span := math.Log(2 * MaxValue / MinValue)
	for i := 0; i < random; i++ {
		checkOffset(t, MinValue*math.Exp(rng.Float64()*span))
	}

	edges := []float64{
		MinValue, math.Nextafter(MinValue, 0),
		MaxValue, math.Nextafter(MaxValue, 0),
		math.MaxFloat64, math.Inf(1), 1,
	}
	for _, v := range edges {
		checkOffset(t, v)
	}
}

// TestAddEdges folds single edge samples and checks where each lands:
// the zero bucket below MinValue, refOffset's bucket otherwise, and
// nowhere for NaN.
func TestAddEdges(t *testing.T) {
	edges := []float64{
		MinValue, math.Nextafter(MinValue, 0),
		MaxValue, math.Nextafter(MaxValue, 0),
		math.MaxFloat64, math.Inf(1),
		0x1p-1022, math.SmallestNonzeroFloat64, 0x1p-1030,
		0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(-1),
		math.NaN(),
	}
	for _, v := range edges {
		s := New()
		s.Add(v)
		if math.IsNaN(v) {
			if s.Count() != 0 {
				t.Fatalf("NaN counted: n=%d", s.Count())
			}
			continue
		}
		want, ok := refOffset(v)
		if !ok {
			if s.zero != 1 {
				t.Fatalf("Add(%v): zero bucket %d, want 1", v, s.zero)
			}
			continue
		}
		if s.zero != 0 || s.counts[want] != 1 {
			t.Fatalf("Add(%v): zero=%d counts[%d]=%d, want the sample at offset %d",
				v, s.zero, want, s.counts[want], want)
		}
	}
}

// TestInfLandsInLastBucket pins +Inf to the last bucket. The formula
// path sent it to the bottom bucket on amd64 (int(+Inf) is MinInt64
// there, and the clamp raised it to minIndex).
func TestInfLandsInLastBucket(t *testing.T) {
	s := New()
	s.Add(1)
	s.Add(math.Inf(1))
	var values []float64
	s.Buckets(func(v float64, c uint64) {
		if c != 1 {
			t.Fatalf("bucket %v holds %d samples, want 1", v, c)
		}
		values = append(values, v)
	})
	if len(values) != 2 || values[0] != rep(0) || values[1] != rep(maxIndex) {
		t.Fatalf("buckets = %v, want [rep(0)=%v rep(maxIndex)=%v]", values, rep(0), rep(maxIndex))
	}
	if q, _ := s.Quantile(0.5); q != 1 {
		t.Fatalf("q0.5 = %v, want 1", q)
	}
	if q, _ := s.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("q1 = %v, want +Inf", q)
	}
	s.Add(math.Inf(1))
	if q, _ := s.Quantile(0.5); q != rep(maxIndex) {
		t.Fatalf("q0.5 of {1, +Inf, +Inf} = %v, want the last bucket's %v", q, rep(maxIndex))
	}
}

// TestNewConcurrent builds sketches from several goroutines at once,
// as the fleet engine's shards do, and checks each folds the same
// samples into the same buckets. Run alone under -race, its New calls
// race for the first table build.
func TestNewConcurrent(t *testing.T) {
	vs := benchSamples()
	out := make([]*Sketch, 4)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := New()
			for _, v := range vs {
				s.Add(v)
			}
			out[g] = s
		}()
	}
	wg.Wait()
	for g, s := range out[1:] {
		for i, c := range s.counts {
			if c != out[0].counts[i] {
				t.Fatalf("sketch %d: counts[%d] = %d, sketch 0 has %d", g+1, i, c, out[0].counts[i])
			}
		}
	}
}

// FuzzSketchIndex asserts the lookup agrees with logIndex for every
// finite v >= MinValue.
func FuzzSketchIndex(f *testing.F) {
	New() // builds the tables
	for _, v := range []float64{
		MinValue, MaxValue, math.Nextafter(MaxValue, 0), 1, Gamma,
		math.MaxFloat64, upper[0], upper[1000], math.Nextafter(upper[1000], 2e12),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkOffset(t, math.Abs(v))
	})
}

// benchSamples are log-uniform over the resolved range, the spread of
// the fleet's four distributions taken together.
func benchSamples() []float64 {
	rng := rand.New(rand.NewSource(1))
	span := math.Log(MaxValue / MinValue)
	out := make([]float64, 4096)
	for i := range out {
		out[i] = MinValue * math.Exp(rng.Float64()*span)
	}
	return out
}

// BenchmarkSketchAdd folds log-uniform samples through the lookup.
func BenchmarkSketchAdd(b *testing.B) {
	s, vs := New(), benchSamples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vs[i&4095])
	}
}

// addLogIndex is Add with the bucket computed by logIndex, as Add did
// before the lookup tables.
func addLogIndex(s *Sketch, v float64) {
	if math.IsNaN(v) {
		return
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	off, ok := refOffset(v)
	if !ok {
		s.zero++
		return
	}
	s.counts[off]++
}

// BenchmarkSketchAddLogIndex is the reference for BenchmarkSketchAdd:
// the same fold through addLogIndex.
func BenchmarkSketchAddLogIndex(b *testing.B) {
	s, vs := New(), benchSamples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addLogIndex(s, vs[i&4095])
	}
}

// BenchmarkBuildTables is the one-time cost the first New pays.
func BenchmarkBuildTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildTables()
	}
}
