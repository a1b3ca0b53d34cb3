package power_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spear-repro/magus/internal/hsmp"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/power"
)

// freqPowEdges are the inputs where the kernel's domain or the presets'
// operating range begins or ends.
func freqPowEdges() []float64 {
	edges := []float64{
		0, -0.5, 1, 2, 1e-300, 5e-324, math.Inf(1), math.NaN(),
		math.Nextafter(power.PowMinX, 0), power.PowMinX, math.Nextafter(power.PowMinX, 1),
		math.Nextafter(1, 0),
	}
	for _, c := range []node.Config{
		node.IntelA100(), node.Intel4A100(), node.IntelCPUOnly(), node.IntelMax1550(), hsmp.AMDEpycMI250(),
	} {
		for _, ghz := range []float64{c.CoreMinGHz, c.CoreBaseGHz, c.CoreMaxGHz} {
			edges = append(edges, ghz, ghz/c.CoreMaxGHz)
		}
	}
	return edges
}

// TestFreqPowMatchesMathPow pins the fixed-exponent kernel to math.Pow
// bit for bit over Validate's whole exponent range in steps of 0.1 —
// integer exponents and the yf == 0.5 splits (1.5, 2.5, 3.5) included —
// on the edges and on 1M random inputs per exponent: a third uniform in
// (0, 1), a third log-uniform over the kernel's own domain, and a third
// log-uniform over (2^-1074, 2^8), most of which takes the fallback.
func TestFreqPowMatchesMathPow(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	for tenths := 10; tenths <= 35; tenths++ {
		exp := float64(tenths) / 10
		k := power.CoreParams{FreqExp: exp}.FreqPow()
		check := func(x float64) {
			if got, want := k.At(x), math.Pow(x, exp); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("FreqExp %v: At(%v) = %v (%#x), math.Pow = %v (%#x)",
					exp, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, x := range freqPowEdges() {
			check(x)
		}
		rng := rand.New(rand.NewSource(int64(tenths)))
		for i := 0; i < n; i++ {
			u := rng.Float64()
			switch i % 3 {
			case 0:
				check(u)
			case 1:
				check(math.Exp2(-256 * u))
			default:
				check(math.Exp2(8 - 1082*u))
			}
		}
	}
}

// FuzzFreqPow checks the kernel against math.Pow bit for bit for any
// input and any exponent, valid or not. The seeds pair every edge with
// the presets' exponent and with exponents outside Validate's range,
// where the kernel must defer to math.Pow rather than extend its
// exactness argument past what it covers.
func FuzzFreqPow(f *testing.F) {
	for _, exp := range []float64{2.4, 0, 0.5, -2.4, 3.6, 4, 7.25, math.NaN()} {
		for _, x := range freqPowEdges() {
			f.Add(x, exp)
		}
	}
	f.Fuzz(func(t *testing.T, x, exp float64) {
		k := power.CoreParams{FreqExp: exp}.FreqPow()
		if got, want := k.At(x), math.Pow(x, exp); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FreqExp %v: At(%v) = %v (%#x), math.Pow = %v (%#x)",
				exp, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

var freqPowSink float64

// BenchmarkFreqPow compares one kernel evaluation with the math.Pow call
// it replaces, at the presets' exponent, over inputs spread across the
// operating range so no result is constant-folded or cached.
func BenchmarkFreqPow(b *testing.B) {
	const exp = 2.4
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = 0.2 + 0.8*rng.Float64()
	}
	k := power.CoreParams{FreqExp: exp}.FreqPow()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			freqPowSink += k.At(xs[i&1023])
		}
	})
	b.Run("math.Pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			freqPowSink += math.Pow(xs[i&1023], exp)
		}
	})
}
