package gpudvfs

import (
	"testing"
	"testing/quick"
	"time"
)

func newA100() *Clock {
	c := New(210, 1410, 20*time.Millisecond)
	return &c
}

func TestTargetShape(t *testing.T) {
	c := newA100()
	if got := c.Target(0); got != 210 {
		t.Fatalf("idle target = %v", got)
	}
	if got := c.Target(0.5); got != 1410 {
		t.Fatalf("loaded target = %v, want max (GPUs boost aggressively)", got)
	}
	if got := c.Target(0.15); got <= 210 || got >= 1410 {
		t.Fatalf("light-load target = %v, want intermediate", got)
	}
}

func TestBoostAndDecay(t *testing.T) {
	c := newA100()
	for i := 0; i < 200; i++ {
		c.Step(0.9, time.Millisecond)
	}
	if c.Current() < 1400 {
		t.Fatalf("boost clock = %v, want ≈1410", c.Current())
	}
	if rel := c.Rel(); rel < 0.99 || rel > 1.0 {
		t.Fatalf("Rel = %v", rel)
	}
	for i := 0; i < 400; i++ {
		c.Step(0, time.Millisecond)
	}
	if c.Current() > 215 {
		t.Fatalf("decayed clock = %v, want ≈210", c.Current())
	}
}

func TestReset(t *testing.T) {
	c := newA100()
	c.Step(1, time.Second)
	c.Reset()
	if c.Current() != 210 {
		t.Fatalf("Reset: %v", c.Current())
	}
}

func TestNewValidation(t *testing.T) {
	for _, c := range [][3]float64{{0, 100, 1}, {100, 100, 1}, {100, 200, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", c)
				}
			}()
			New(c[0], c[1], time.Duration(c[2])*time.Millisecond)
		}()
	}
}

// TestStepDtClamp is the regression table for degenerate dt values: a
// zero or negative dt must leave the clock unchanged (the pre-fix code
// flipped alpha's sign on negative dt and pushed the clock *away* from
// its target), and dt > Tau must clamp alpha to 1 (land exactly on the
// target, never overshoot).
func TestStepDtClamp(t *testing.T) {
	tests := []struct {
		name   string
		dt     time.Duration
		start  float64
		smUtil float64
		want   float64
	}{
		{"zero dt holds", 0, 700, 0.9, 700},
		{"negative dt holds", -5 * time.Millisecond, 700, 0.9, 700},
		{"negative dt holds at idle", -time.Second, 700, 0, 700},
		{"dt == Tau lands on target", 20 * time.Millisecond, 700, 0.9, 1410},
		{"dt > Tau clamps to target", time.Second, 700, 0.9, 1410},
		{"dt > Tau decays to idle", time.Second, 1410, 0, 210},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := newA100()
			c.SetCurrent(tc.start)
			got := c.Step(tc.smUtil, tc.dt)
			if got != tc.want {
				t.Fatalf("Step(%v, %v) from %v = %v, want %v",
					tc.smUtil, tc.dt, tc.start, got, tc.want)
			}
			if c.Current() != got {
				t.Fatalf("Current() = %v after Step returned %v", c.Current(), got)
			}
		})
	}
}

func TestClockBounds(t *testing.T) {
	prop := func(utils []uint8) bool {
		c := newA100()
		for _, u := range utils {
			f := c.Step(float64(u%101)/100, 2*time.Millisecond)
			if f < 210-1e-9 || f > 1410+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
