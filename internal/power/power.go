// Package power holds the analytic power models of the node simulator:
// per-socket core and uncore domains, DRAM, and GPU boards. The models
// are deliberately simple — affine/polynomial in frequency, utilisation
// and traffic — and are calibrated against the operating points the
// paper reports (see internal/node presets and DESIGN.md §2):
//
//   - UNet on the 2×Xeon-8380 + A100 system draws ≈200 W package power
//     at the 2.2 GHz uncore maximum and ≈120 W at the 0.8 GHz minimum
//     (Figure 2), i.e. the uncore dynamic range is ≈40 % of package
//     power for that workload.
//   - A single A100-40GB idles near 30 W; four A100-80GB idle near
//     200 W total (§6.1).
//
// All model functions are pure; the node integrates them over time.
package power

import (
	"fmt"
	"math"
	"runtime"
)

// CoreParams models one socket's core domain.
type CoreParams struct {
	// IdleWatts is the core-domain floor with all cores in idle states.
	IdleWatts float64
	// MaxPerCoreWatts is the incremental power of one fully utilised
	// core running at maximum frequency.
	MaxPerCoreWatts float64
	// FreqExp is the frequency exponent of active power (voltage
	// scales with frequency, so the effective exponent sits between 2
	// and 3; 2.4 matches published Xeon DVFS measurements well).
	FreqExp float64
}

// Validate reports configuration errors.
func (p CoreParams) Validate() error {
	if p.IdleWatts < 0 || p.MaxPerCoreWatts <= 0 || p.FreqExp < 1 || p.FreqExp > 3.5 {
		return fmt.Errorf("power: invalid CoreParams %+v", p)
	}
	return nil
}

// Power returns the core-domain watts for busyCores cores (may be
// fractional) running at relFreq (f/fmax, clamped to [0,1]).
func (p CoreParams) Power(busyCores, relFreq float64) float64 {
	if busyCores < 0 {
		busyCores = 0
	}
	relFreq = clamp01(relFreq)
	return p.IdleWatts + p.MaxPerCoreWatts*busyCores*p.FreqPow().At(relFreq)
}

// FreqPow returns the kernel that evaluates relFreq^FreqExp. Build it
// once and keep it: the exponent split happens here, not per call.
func (p CoreParams) FreqPow() FixedPow {
	k := FixedPow{exp: p.FreqExp}
	// Outside Validate's range the integer part can exceed what the
	// exactness argument in At covers; so can a platform whose
	// math.Pow is not the portable Go code (s390x has an assembly one).
	if !(p.FreqExp >= 1 && p.FreqExp <= 3.5) || runtime.GOARCH == "s390x" {
		return k
	}
	// The same split math.Pow makes: integer and fractional parts, the
	// fraction moved into (-0.5, 0.5] so Exp(yf*Log(x)) stays near 1.
	yi, yf := math.Modf(p.FreqExp)
	if yf > 0.5 {
		yf--
		yi++
	}
	k.yi, k.yf = int(yi), yf
	return k
}

// FixedPow evaluates x^e for one fixed exponent e, bit-identical to
// math.Pow(x, e) for every x.
//
// The portable math.Pow computes Exp(yf*Log(x)), multiplies in x^yi by
// repeated squaring of Frexp's mantissa of x while it tracks the binary
// exponent in an integer, and applies that exponent with one Ldexp at
// the end. Scaling by a power of two is exact while a value stays
// normal, so the same products taken on x itself, in the same order,
// round to the same mantissas; the final Ldexp is then exact too. At
// does exactly that for x in [powMinX, 1), where every intermediate and
// the result lie in [2^-896, 2^128], and defers to math.Pow elsewhere.
// It skips the special-case switch, Modf, Frexp, Ldexp and the exponent
// bookkeeping (docs/PERF.md has the measured cost).
type FixedPow struct {
	exp float64
	yi  int     // 0: always call math.Pow
	yf  float64 // exp - yi, in (-0.5, 0.5]
}

// powMinX is the smallest x At evaluates itself. With e <= 3.5 the
// smallest intermediate is x^3.5 >= 2^-896, far from the subnormals
// where a scaled product could round differently.
const powMinX = 0x1p-256

// At returns math.Pow(x, e), bit for bit.
func (k FixedPow) At(x float64) float64 {
	if k.yi == 0 || !(x >= powMinX && x < 1) {
		return math.Pow(x, k.exp)
	}
	a := 1.0
	if k.yf != 0 {
		a = math.Exp(k.yf * math.Log(x))
	}
	for i := k.yi; ; {
		if i&1 == 1 {
			a *= x
		}
		if i >>= 1; i == 0 {
			return a
		}
		x *= x
	}
}

// UncoreParams models one socket's uncore domain (LLC, memory
// controller, UPI/mesh).
type UncoreParams struct {
	// BaseWatts is the frequency-independent floor.
	BaseWatts float64
	// DynMaxWatts is the additional power at maximum uncore frequency
	// with idle traffic; it scales quadratically with f/fmax.
	DynMaxWatts float64
	// TrafficWattsPerGBs is the switching power per GB/s of memory
	// traffic served by this socket's controllers.
	TrafficWattsPerGBs float64
}

// Validate reports configuration errors.
func (p UncoreParams) Validate() error {
	if p.BaseWatts < 0 || p.DynMaxWatts <= 0 || p.TrafficWattsPerGBs < 0 {
		return fmt.Errorf("power: invalid UncoreParams %+v", p)
	}
	return nil
}

// Power returns the uncore watts at relFreq = f/fmax with the given
// served traffic.
func (p UncoreParams) Power(relFreq, trafficGBs float64) float64 {
	relFreq = clamp01(relFreq)
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	return p.BaseWatts + p.DynMaxWatts*relFreq*relFreq + p.TrafficWattsPerGBs*trafficGBs
}

// DramParams models one socket's DRAM domain as measured by RAPL.
type DramParams struct {
	// IdleWatts covers refresh and background power.
	IdleWatts float64
	// WattsPerGBs is the read/write energy per unit bandwidth
	// (≈0.12–0.2 W per GB/s for DDR4/DDR5).
	WattsPerGBs float64
}

// Validate reports configuration errors.
func (p DramParams) Validate() error {
	if p.IdleWatts < 0 || p.WattsPerGBs < 0 {
		return fmt.Errorf("power: invalid DramParams %+v", p)
	}
	return nil
}

// Power returns DRAM watts at the given served traffic.
func (p DramParams) Power(trafficGBs float64) float64 {
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	return p.IdleWatts + p.WattsPerGBs*trafficGBs
}

// GPUParams models one GPU board (cores + HBM + VRM/fans/PCIe logic, as
// NVML's board power reports).
type GPUParams struct {
	// IdleWatts is board power with no kernels resident.
	IdleWatts float64
	// MaxWatts is the board power limit (TDP).
	MaxWatts float64
	// ComputeShare splits dynamic power between SM activity (scaled by
	// SM utilisation and clock squared) and memory activity (scaled by
	// memory utilisation). Typical ≈0.7.
	ComputeShare float64
}

// Validate reports configuration errors.
func (p GPUParams) Validate() error {
	if p.IdleWatts < 0 || p.MaxWatts <= p.IdleWatts || p.ComputeShare < 0 || p.ComputeShare > 1 {
		return fmt.Errorf("power: invalid GPUParams %+v", p)
	}
	return nil
}

// Power returns board watts at the given SM utilisation, relative SM
// clock (f/fmax) and memory utilisation, all in [0,1].
func (p GPUParams) Power(smUtil, relClock, memUtil float64) float64 {
	smUtil = clamp01(smUtil)
	relClock = clamp01(relClock)
	memUtil = clamp01(memUtil)
	dyn := p.MaxWatts - p.IdleWatts
	return p.IdleWatts + dyn*(p.ComputeShare*smUtil*relClock*relClock+(1-p.ComputeShare)*memUtil)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
