package main

import (
	"testing"

	"github.com/spear-repro/magus/internal/experiments"
	"github.com/spear-repro/magus/internal/harness"
)

// The traced run's hand-wired cell must be the program harness.Run
// runs, or its layer times describe something else.
func TestWiredCellBitEqualToHarnessRun(t *testing.T) {
	grid, err := sweepGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	slice := grid[1]
	// One app per system, every governor.
	for _, i := range []int{0, 1, 2, 60, 61, 62, len(slice) - 3, len(slice) - 2, len(slice) - 1} {
		c := slice[i]
		want, err := harness.Run(c.cfg, c.prog, c.factory(), harness.Options{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		ct := newCellTimes()
		got, err := wireCell(c, ct, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resultsDigest(got) != resultsDigest(want) {
			t.Errorf("%s/%s/%s: wired %+v != harness.Run %+v", c.cfg.Name, c.prog.Name, c.gov, got, want)
		}
		if ct.ticks == 0 || ct.sampled == 0 || ct.invokes[c.gov] == 0 {
			t.Errorf("%s/%s/%s: no ticks, samples or invokes recorded: %+v", c.cfg.Name, c.prog.Name, c.gov, ct)
		}
	}
}

// The benchmark's grid must be the paper's Fig. 4 grid: its reduced
// MAGUS-vs-default comparison equals experiments.Figure4's, which
// pins the governor cost models the benchmark restates.
func TestSweepGridIsFigure4(t *testing.T) {
	const seed = 5
	grid, err := sweepGrid(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range []string{"Intel+Max1550", "Intel+4A100"} {
		fig, err := experiments.Figure4(system, experiments.Options{Repeats: sweepSlices, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range fig.Apps {
			var res [sweepSlices][3]harness.Result
			found := false
			for i := 0; i < len(grid[0]); i += 3 {
				c := grid[0][i]
				if c.cfg.Name != system || c.prog.Name != app.App {
					continue
				}
				found = true
				for k := range grid {
					for g := 0; g < 3; g++ {
						c := grid[k][i+g]
						if res[k][g], err = harness.Run(c.cfg, c.prog, c.factory(), harness.Options{Seed: c.seed}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if !found {
				t.Fatalf("%s/%s missing from the grid", system, app.App)
			}
			reduce := func(g int) harness.Result {
				return harness.Reduce([]harness.Result{res[0][g], res[1][g], res[2][g]})
			}
			if got := harness.Compare(reduce(0), reduce(1)); got != app.MAGUS {
				t.Errorf("%s/%s MAGUS: grid %+v != Figure4 %+v", system, app.App, got, app.MAGUS)
			}
			if got := harness.Compare(reduce(0), reduce(2)); got != app.UPS {
				t.Errorf("%s/%s UPS: grid %+v != Figure4 %+v", system, app.App, got, app.UPS)
			}
		}
	}
}
