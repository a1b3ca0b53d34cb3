package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

// flightRun executes the goldens' fixed scenario (MAGUS on Intel+A100
// running bfs, pcm-loss faults armed) with the given ring.
func flightRun(t *testing.T, ring *flight.Ring) Result {
	t.Helper()
	return flightRunGov(t, core.New(core.DefaultConfig()), Options{Flight: ring})
}

// flightRunGov runs the fixed scenario under gov with opt's observers.
func flightRunGov(t *testing.T, gov governor.Governor, opt Options) Result {
	t.Helper()
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	plan, ok := faults.Preset("pcm-loss")
	if !ok {
		t.Fatal("pcm-loss preset missing")
	}
	opt.Seed, opt.Faults = 1, plan
	res, err := Run(cfg, prog, gov, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlightRecordsRun: an armed run leaves decisions, health
// transitions, fault tallies and lifecycle marks in the ring, and its
// Result is byte-identical to the unarmed run (recording is passive).
func TestFlightRecordsRun(t *testing.T) {
	ring := flight.NewRing(4096)
	got := flightRun(t, ring)
	want := flightRun(t, nil)
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("flight recording perturbed the run\nwant %s\ngot  %s", wj, gj)
	}

	snap := ring.Snapshot()
	if len(snap) == 0 {
		t.Fatal("ring empty after armed run")
	}
	kinds := map[flight.Kind]int{}
	for _, r := range snap {
		kinds[r.Kind]++
	}
	if kinds[flight.KindDecision] == 0 {
		t.Fatal("no decisions recorded")
	}
	if kinds[flight.KindHealth] == 0 {
		t.Fatal("no health transitions recorded (pcm-loss must degrade the sensor)")
	}
	if kinds[flight.KindFault] == 0 {
		t.Fatal("no fault tallies recorded")
	}
	if snap[0].Tag != "run_start" {
		t.Fatalf("first record = %q, want run_start", snap[0].Tag)
	}
	last := snap[len(snap)-1]
	if last.Tag != "run_end" || last.A != got.RuntimeS {
		t.Fatalf("last record = %+v, want run_end with runtime %v", last, got.RuntimeS)
	}

	var buf bytes.Buffer
	if err := ring.DumpJSONL(&buf, "harness-test"); err != nil {
		t.Fatalf("dump: %v", err)
	}
	for _, ln := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var obj map[string]any
		if err := json.Unmarshal(ln, &obj); err != nil {
			t.Fatalf("dump line does not parse: %v (%s)", err, ln)
		}
	}
}

// TestFlightDeterministic: two identical armed runs record identical
// ring contents (the recorder carries no wall-clock state).
func TestFlightDeterministic(t *testing.T) {
	a, b := flight.NewRing(1024), flight.NewRing(1024)
	flightRun(t, a)
	flightRun(t, b)
	var da, db bytes.Buffer
	if err := a.DumpJSONL(&da, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.DumpJSONL(&db, "x"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Bytes(), db.Bytes()) {
		t.Fatal("armed runs are not deterministic")
	}
}

// TestFlightSeesThroughPowerCap: a power cap is transparent to the
// observers, so a capped run records the same sensor-health transitions
// as an uncapped one and traces the sensor_health series.
func TestFlightSeesThroughPowerCap(t *testing.T) {
	healthRecords := func(gov governor.Governor) (int, Result) {
		ring := flight.NewRing(4096)
		res := flightRunGov(t, gov, Options{Flight: ring, TraceInterval: 200 * time.Millisecond})
		n := 0
		for _, r := range ring.Snapshot() {
			if r.Kind == flight.KindHealth {
				n++
			}
		}
		return n, res
	}
	want, _ := healthRecords(core.New(core.DefaultConfig()))
	got, res := healthRecords(governor.WithPowerCap(core.New(core.DefaultConfig()), 150))
	if want == 0 {
		t.Fatal("uncapped run recorded no health transitions (pcm-loss must degrade the sensor)")
	}
	if got != want {
		t.Fatalf("capped run recorded %d health transitions, uncapped %d", got, want)
	}
	if s := res.Traces.Series("sensor_health"); s == nil || s.Max() == 0 {
		t.Fatal("capped run traced no sensor_health series")
	}
}
