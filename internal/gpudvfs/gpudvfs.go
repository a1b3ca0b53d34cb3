// Package gpudvfs models a GPU's autonomous SM-clock management (the
// behaviour nvidia-smi reports and Figure 1b of the paper shows): the
// SM clock idles low with no resident kernels and boosts toward the
// maximum clock under compute load, with a first-order response.
package gpudvfs

import (
	"fmt"
	"time"
)

// Clock is one GPU's SM-clock controller. Construct with New.
type Clock struct {
	IdleMHz float64
	MaxMHz  float64
	// Tau is the boost/decay response time constant (tens of ms on
	// real boards).
	Tau time.Duration

	cur float64
}

// New returns a controller initialised at the idle clock.
func New(idleMHz, maxMHz float64, tau time.Duration) Clock {
	if !(0 < idleMHz && idleMHz < maxMHz) || tau <= 0 {
		panic(fmt.Sprintf("gpudvfs: invalid clock %v/%v tau=%v", idleMHz, maxMHz, tau))
	}
	return Clock{IdleMHz: idleMHz, MaxMHz: maxMHz, Tau: tau, cur: idleMHz}
}

// Target returns the steady-state SM clock for an SM utilisation in
// [0,1]. GPUs boost aggressively: any non-trivial load runs at or near
// the max boost clock.
func (c *Clock) Target(smUtil float64) float64 {
	switch {
	case smUtil <= 0.01:
		return c.IdleMHz
	case smUtil >= 0.3:
		return c.MaxMHz
	default:
		return c.IdleMHz + (c.MaxMHz-c.IdleMHz)*(smUtil/0.3)
	}
}

// Step advances the controller by dt under the given SM utilisation and
// returns the new clock in MHz. A non-positive dt leaves the clock
// unchanged: time did not advance, so the first-order response must not
// move (a negative dt would flip the sign of alpha and push the clock
// *away* from its target).
func (c *Clock) Step(smUtil float64, dt time.Duration) float64 {
	if dt <= 0 {
		return c.cur
	}
	target := c.Target(smUtil)
	alpha := float64(dt) / float64(c.Tau)
	if alpha > 1 {
		alpha = 1
	}
	c.cur += (target - c.cur) * alpha
	return c.cur
}

// Current returns the operating SM clock in MHz.
func (c *Clock) Current() float64 { return c.cur }

// SetCurrent overwrites the operating clock — the checkpoint restore
// path; normal operation goes through Step.
func (c *Clock) SetCurrent(mhz float64) { c.cur = mhz }

// Rel returns the clock relative to the maximum, in [0,1].
func (c *Clock) Rel() float64 { return c.cur / c.MaxMHz }

// Reset forces the controller back to the idle clock.
func (c *Clock) Reset() { c.cur = c.IdleMHz }
