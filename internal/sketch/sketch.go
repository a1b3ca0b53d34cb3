// Package sketch implements a deterministic, mergeable quantile
// sketch over log-spaced buckets (the DDSketch family: relative-error
// quantiles from geometric bucket boundaries).
//
// The design goal is *merge-order invariance by construction*: the
// fleet engine folds per-member samples into per-shard sketches and
// merges the shards, and the merged result must be byte-identical for
// any shard count. Floating-point accumulation is order-dependent
// (a+b+c != a+(b+c) in general), so the sketch keeps no running float
// sum — its mergeable state is integers only (per-bucket uint64
// counts plus a zero-bucket count) and the exactly order-invariant
// min/max. Derived statistics (quantiles, approximate mean/sum) are
// computed at read time from the merged counts, so they depend only
// on the multiset of samples, never on the fold or merge order.
//
// The bucket layout is fixed at compile time: index(v) = ceil(log_γ v)
// with γ = (1+α)/(1-α) for α = 1% relative error, over the value range
// [1e-9, 1e12). Values below the range (including zero and negatives)
// land in the zero bucket; values at or above the top are clamped into
// the last bucket. A fixed layout means every sketch is mergeable with
// every other and Add is a table lookup and an array increment: no
// allocation, no map, no collapse logic on the hot path.
//
// # Bucket index without a logarithm
//
// The formula ceil(Log(v)·(1/ln γ)), kept as logIndex, defines the
// layout, but Add does not evaluate it. A sample in [MinValue,
// MaxValue) is binned by its exponent and top binBits mantissa bits;
// a bin is ln(1+2^-6) ≈ 0.0155 wide in log space and a bucket is
// ln γ ≈ 0.0200, so a bin holds at most one bucket boundary. Two
// tables, built from logIndex on the first New, give the bucket of
// each bin's first value and the largest value of each bucket, so the
// index is one table read and one compare. Everything at or above
// MaxValue, +Inf included, goes to the last bucket.
//
// For v in [MinValue, MaxValue) the lookup returns logIndex(v) bit
// for bit. Let t(v) = log_γ v exactly, for γ the float64 Gamma. Go's
// Log errs by under 1 ulp (1.8e-13 in log_γ units for |ln v| < 28),
// the product rounds by at most 1.1e-13 and 1/ln γ's error adds at
// most 4e-13, so |Log(v)·(1/ln γ) − t(v)| < 1e-12 over the layout. A
// float more than 4096 ulps from every boundary γ^j has |t(v) − j| >
// 2.2e-11, so there the computed ceiling is the true one, a
// non-decreasing step function whose steps all lie inside those
// windows. upper holds logIndex's own steps and binLo is read off
// upper, so the lookup reproduces it. The 1e-12 bound is under 200
// ulps, so each upper[k] lies that close to γ^k; inside the windows
// the tests compare every float within 4096 ulps of every upper[k]
// with logIndex (TestBucketIndexMatchesLog).
package sketch

import (
	"math"
	"sync"
)

// Alpha is the target relative error of reported quantiles: a value
// reported for quantile q is within ±1% of an exact sample value.
const Alpha = 0.01

// Gamma is the bucket growth factor (1+Alpha)/(1-Alpha).
const Gamma = (1 + Alpha) / (1 - Alpha)

// MinValue is the smallest magnitude resolved by the log buckets;
// samples below it (including 0 and negatives) count in the zero
// bucket and report as 0.
const MinValue = 1e-9

// MaxValue is the top of the resolved range; larger samples clamp
// into the final bucket.
const MaxValue = 1e12

// invLogGamma is 1/ln(γ), the factor logIndex multiplies Log(v) by.
// Its error, under 3e-16 relative (Log's ulp of ln γ plus the
// division's rounding), is under 4e-13 in log_γ units over the
// layout's ±1400 buckets: part of the 1e-12 bound in the package
// doc's exactness argument.
var invLogGamma = 1 / math.Log(Gamma)

// logIndex is the bucket formula ceil(log_γ v). It defines the layout
// and builds the lookup tables; Add does not call it. Its int
// conversion of ±Inf differs between architectures, so callers pass
// finite values only.
func logIndex(v float64) int {
	return int(math.Ceil(math.Log(v) * invLogGamma))
}

// minIndex/maxIndex are ceil(log_γ MinValue) and ceil(log_γ MaxValue),
// fixed by the constants above. They are computed once at init; the
// values are ~[-1036, +1382] for the constants above (~2.4k buckets,
// ~19 KiB of counts per sketch).
var (
	minIndex = logIndex(MinValue)
	maxIndex = logIndex(MaxValue)
)

// A bin is the set of floats sharing their exponent and top binBits
// mantissa bits: bits>>binShift of a positive float.
const (
	binBits  = 6
	binShift = 52 - binBits
)

// binBase is the bin of MinValue; bin numbers in the tables are
// relative to it.
var binBase = math.Float64bits(MinValue) >> binShift

// The lookup tables, built by buildTables on the first New.
// binLo[b] is the counts offset (index − minIndex) of bin b's first
// value, clipped up to MinValue; upper[k] is the largest float64
// that logIndex puts at offset ≤ k. About 9 KiB and 19 KiB.
var (
	tablesOnce sync.Once
	binLo      []uint16
	upper      []float64
)

// buildTables reads upper off logIndex and binLo off upper, in about
// 0.6 ms on a 2 GHz Xeon. Each boundary starts at exp(j·ln γ),
// mostly within 16 ulps of where logIndex steps (math.Pow(γ, j) is
// hundreds of ulps off), and moves by ulps to the last float logIndex
// keeps in bucket j. With logIndex non-decreasing, the bucket of a
// bin's first value is the first k with start ≤ upper[k].
func buildTables() (binLo []uint16, upper []float64) {
	upper = make([]float64, maxIndex-minIndex+1)
	for k := range upper {
		j := minIndex + k
		bits := math.Float64bits(math.Exp(float64(j) / invLogGamma))
		for logIndex(math.Float64frombits(bits)) > j {
			bits--
		}
		for logIndex(math.Float64frombits(bits+1)) <= j {
			bits++
		}
		upper[k] = math.Float64frombits(bits)
	}
	top := math.Float64bits(MaxValue) >> binShift
	binLo = make([]uint16, top-binBase+1)
	k := 0
	for b := range binLo {
		start := math.Max(math.Float64frombits((binBase+uint64(b))<<binShift), MinValue)
		lo := k
		for start > upper[k] {
			k++
		}
		// offset moves at most one bucket past binLo, so the bin
		// before this one may hold one boundary, never two.
		if k > lo+1 {
			panic("sketch: a lookup bin spans more than one bucket boundary")
		}
		binLo[b] = uint16(k)
	}
	if last := len(upper) - 1; last > k+1 {
		panic("sketch: the last lookup bin spans more than one bucket boundary")
	}
	return binLo, upper
}

// offset returns the counts offset of a sample v >= MinValue; NaN is
// not allowed. It equals logIndex(v)−minIndex clamped to the layout,
// and maps +Inf to the last bucket. The tables must be built.
func offset(v float64) int {
	if v >= MaxValue {
		return len(upper) - 1
	}
	k := int(binLo[math.Float64bits(v)>>binShift-binBase])
	if v > upper[k] {
		k++
	}
	return k
}

// Sketch is a fixed-layout log-bucket quantile sketch. The zero value
// is not usable; call New. All methods are single-goroutine; the fleet
// engine keeps one sketch per shard and merges after the barrier.
type Sketch struct {
	// counts[i] tallies samples in bucket minIndex+i, i.e. values v
	// with γ^(minIndex+i-1) < v <= γ^(minIndex+i).
	counts []uint64
	// zero tallies samples below MinValue (incl. zero and negatives).
	zero uint64
	// n is the total sample count including the zero bucket.
	n uint64
	// min/max are exact extremes; min/max are order-invariant under
	// merge because min(min(a,b),c) = min(a,min(b,c)) exactly.
	min, max float64
}

// New returns an empty sketch with the package's fixed layout.
func New() *Sketch {
	tablesOnce.Do(func() { binLo, upper = buildTables() })
	return &Sketch{
		counts: make([]uint64, maxIndex-minIndex+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Reset empties the sketch in place, keeping its bucket array.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.zero = 0
	s.n = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Add folds one sample. It performs no allocation, no logarithm and
// no branching beyond range clamps and one table compare, so it is
// safe inside the fleet engine's zero-alloc steady-state tick. NaN
// samples are ignored (a NaN would poison min/max and cannot be
// ranked).
func (s *Sketch) Add(v float64) {
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
	if v < MinValue {
		s.zero++
		return
	}
	s.counts[offset(v)]++
}

// Merge folds o into s. Merging is commutative and associative
// *exactly* — it is integer addition per bucket plus exact min/max —
// so any merge tree over the same sketches yields identical state.
// A nil or empty o is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.zero += o.zero
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Count returns the number of samples folded in (including the zero
// bucket).
func (s *Sketch) Count() uint64 { return s.n }

// Min returns the exact minimum sample, or +Inf when empty.
func (s *Sketch) Min() float64 { return s.min }

// Max returns the exact maximum sample, or -Inf when empty.
func (s *Sketch) Max() float64 { return s.max }

// rep returns the representative value of bucket index i: the
// geometric midpoint 2γ^i/(γ+1) of the bucket's (γ^(i-1), γ^i]
// range, which bounds relative error by Alpha.
func rep(i int) float64 {
	return math.Pow(Gamma, float64(i)) * 2 / (Gamma + 1)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with
// relative error at most Alpha, and false when the sketch is empty.
// The zero bucket reports 0. Estimates are clamped to the exact
// [Min, Max] so q=0 and q=1 report the true extremes.
func (s *Sketch) Quantile(q float64) (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	if q <= 0 {
		return s.min, true
	}
	if q >= 1 {
		return s.max, true
	}
	// rank is the 0-based index of the order statistic to report.
	rank := uint64(q * float64(s.n-1))
	if rank < s.zero {
		return s.clamp(0), true
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += c
		if rank < cum {
			return s.clamp(rep(minIndex + i)), true
		}
	}
	// Unreachable when counts are consistent; defend anyway.
	return s.max, true
}

// clamp pins an estimate into the exact observed range.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Sum returns the approximate sum of all samples, Σ countᵢ·repᵢ over
// the merged buckets (zero-bucket samples contribute 0). Because it
// is derived from the merged integer state in a fixed bucket order,
// it is identical for any merge order — unlike a running float sum.
func (s *Sketch) Sum() float64 {
	var sum float64
	for i, c := range s.counts {
		if c != 0 {
			sum += float64(c) * rep(minIndex+i)
		}
	}
	return sum
}

// Mean returns Sum()/Count(), or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Sum() / float64(s.n)
}

// Buckets calls fn for every non-empty log bucket in ascending value
// order with the bucket's representative value and count, preceded by
// the zero bucket (value 0) when it is non-empty. Exposition layers
// (obs histograms, JSON status pages) fold the sketch through this.
func (s *Sketch) Buckets(fn func(value float64, count uint64)) {
	if s.zero != 0 {
		fn(0, s.zero)
	}
	for i, c := range s.counts {
		if c != 0 {
			fn(rep(minIndex+i), c)
		}
	}
}

// Summary is the fixed five-number reduction used in fleet reports.
// All fields derive deterministically from merged integer state.
type Summary struct {
	Count uint64
	Min   float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
	Mean  float64
}

// Summarize reduces the sketch to its report summary. An empty sketch
// reports all zeros (not ±Inf), so summaries are JSON-safe.
func (s *Sketch) Summarize() Summary {
	if s.n == 0 {
		return Summary{}
	}
	p50, _ := s.Quantile(0.50)
	p90, _ := s.Quantile(0.90)
	p99, _ := s.Quantile(0.99)
	return Summary{
		Count: s.n,
		Min:   s.min,
		P50:   p50,
		P90:   p90,
		P99:   p99,
		Max:   s.max,
		Mean:  s.Mean(),
	}
}
