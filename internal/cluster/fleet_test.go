package cluster

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/workload"
)

// fleetProg builds a short mixed-shape program so identity tests cover
// bursty dynamics without catalog-app runtimes. durMS staggers member
// completion times, exercising the trailing-sample extension phase.
func fleetProg(name string, durMS int) *workload.Program {
	d := time.Duration(durMS) * time.Millisecond
	return &workload.Program{Name: name, Phases: []workload.Phase{
		{Name: "stage", Duration: d / 3, Mem: 0.7, Shape: workload.Constant,
			Beta: 0.8, CPUBusyCores: 4, GPUSM: 0.2, GPUMem: 0.4, Jitter: 0.05},
		{Name: "kernel", Duration: d, Mem: 0.3, MemLow: 0.05, Shape: workload.Bursts,
			Period: 300 * time.Millisecond, Duty: 0.3, BurstLen: 60 * time.Millisecond,
			Beta: 0.5, CPUBusyCores: 2, GPUSM: 0.9, GPUMem: 0.6, Jitter: 0.08},
	}}
}

// fleetSpecs builds the satellite's mixed-governor, fault-preset
// identity cluster: MAGUS, vendor-default and static members
// interleaved, with pcm-loss and chaos fault plans armed on some.
func fleetSpecs(t *testing.T, n int) []NodeSpec {
	t.Helper()
	specs := make([]NodeSpec, n)
	for i := range specs {
		spec := NodeSpec{
			Name:     fmt.Sprintf("node%d", i),
			Config:   node.IntelA100(),
			Workload: fleetProg(fmt.Sprintf("w%d", i%4), 1200+300*(i%4)),
			Seed:     1 + int64(i)*131,
		}
		switch i % 3 {
		case 0:
			spec.Factory = magusFactory
		case 1:
			// vendor default: no governor daemon.
		case 2:
			min := spec.Config.UncoreMinGHz
			spec.Factory = func() governor.Governor { return governor.NewStatic(min) }
		}
		if i%2 == 0 {
			name := "pcm-loss"
			if i%4 == 0 {
				name = "chaos"
			}
			plan, ok := faults.Preset(name)
			if !ok {
				t.Fatalf("fault preset %s missing", name)
			}
			spec.Faults = plan
		}
		specs[i] = spec
	}
	return specs
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetShardIdentity pins the tentpole contract: the sharded
// engine's Result is byte-identical (JSON-serialised, covering every
// trace sample) to the single-engine reference for shard counts
// {1, 2, 7, NumCPU} over a mixed-governor, fault-preset cluster.
func TestFleetShardIdentity(t *testing.T) {
	specs := fleetSpecs(t, 9)
	ref, err := runReference(specs, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, ref)

	counts := []int{1, 2, 7, runtime.NumCPU()}
	for _, k := range counts {
		got, err := RunFleet(specs, Options{SampleEvery: 50 * time.Millisecond, Shards: k})
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if g := mustJSON(t, got); g != want {
			t.Errorf("shards=%d: result diverged from single-engine reference\nref:  %.200s\ngot:  %.200s",
				k, want, g)
		}
	}
}

// TestFleetPartitionProperty: shard partition boundaries never change
// Result.MakespanS or TimeOverBudget, for every shard count up to
// beyond the member count.
func TestFleetPartitionProperty(t *testing.T) {
	specs := fleetSpecs(t, 6)
	ref, err := runReference(specs, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := ref.PeakW * 0.9
	for k := 1; k <= len(specs)+2; k++ {
		got, err := RunFleet(specs, Options{Shards: k})
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if got.MakespanS != ref.MakespanS {
			t.Errorf("shards=%d: makespan %v != reference %v", k, got.MakespanS, ref.MakespanS)
		}
		if g, w := got.TimeOverBudget(budget), ref.TimeOverBudget(budget); g != w {
			t.Errorf("shards=%d: TimeOverBudget %v != reference %v", k, g, w)
		}
	}
}

// TestFleetDuplicateNames: duplicate member names used to reach the
// telemetry recorder, silently keying two members to one series (or
// panicking); both user-supplied duplicates and a user name colliding
// with an auto-generated one must fail loudly, on every path.
func TestFleetDuplicateNames(t *testing.T) {
	prog := fleetProg("w", 1000)
	dup := []NodeSpec{
		{Name: "a", Config: node.IntelA100(), Workload: prog},
		{Name: "a", Config: node.IntelA100(), Workload: prog},
	}
	// A user-supplied "node1" colliding with the auto-generated name
	// for index 1.
	collide := []NodeSpec{
		{Name: "node1", Config: node.IntelA100(), Workload: prog},
		{Config: node.IntelA100(), Workload: prog},
	}
	for _, tc := range []struct {
		label string
		specs []NodeSpec
	}{{"user-supplied", dup}, {"auto-generated", collide}} {
		if _, err := Run(tc.specs, 0); err == nil || !strings.Contains(err.Error(), "duplicate member name") {
			t.Errorf("%s duplicates: want loud duplicate-name error, got %v", tc.label, err)
		}
		if _, err := runReference(tc.specs, 0, nil); err == nil || !strings.Contains(err.Error(), "duplicate member name") {
			t.Errorf("%s duplicates (reference): want loud duplicate-name error, got %v", tc.label, err)
		}
	}
}

// TestFleetAggregateTelemetry: aggregate-only mode must drop the
// per-member traces and per-member metric series, keep the aggregate
// byte-identical to full mode, and rank the TopK summaries by energy.
func TestFleetAggregateTelemetry(t *testing.T) {
	specs := fleetSpecs(t, 6)
	full, err := RunFleet(specs, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil, nil)
	agg, err := RunFleet(specs, Options{Shards: 3, Telemetry: TelemetryAggregate, TopK: 3, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NodePower != nil {
		t.Errorf("aggregate mode kept %d per-member traces", len(agg.NodePower))
	}
	if mustJSON(t, agg.Aggregate) != mustJSON(t, full.Aggregate) {
		t.Error("aggregate trace diverged between full and aggregate-only telemetry")
	}
	if agg.EnergyJ != full.EnergyJ || agg.MakespanS != full.MakespanS ||
		agg.PeakW != full.PeakW || agg.AvgW != full.AvgW {
		t.Errorf("scalar results diverged: full %+v vs aggregate %+v", summary(full), summary(agg))
	}
	if len(agg.Top) != 3 {
		t.Fatalf("TopK=3 returned %d summaries", len(agg.Top))
	}
	var sumTop float64
	for i, s := range agg.Top {
		if i > 0 && s.EnergyJ > agg.Top[i-1].EnergyJ {
			t.Errorf("Top not sorted by energy: %v after %v", s.EnergyJ, agg.Top[i-1].EnergyJ)
		}
		if s.Name == "" || s.Workload == "" || s.Governor == "" || s.PeakW <= 0 || s.DoneS <= 0 {
			t.Errorf("summary %d incomplete: %+v", i, s)
		}
		sumTop += s.EnergyJ
	}
	if sumTop <= 0 || sumTop > full.EnergyJ {
		t.Errorf("Top energies %v implausible against total %v", sumTop, full.EnergyJ)
	}

	text := o.Registry().Text()
	if !strings.Contains(text, "magus_cluster_power_watts") {
		t.Error("aggregate mode lost the aggregate power gauge")
	}
	if strings.Contains(text, "magus_cluster_node_power_watts{") ||
		strings.Contains(text, "magus_cluster_member_info{") {
		t.Error("aggregate mode still publishes O(members) series:\n" + text)
	}
}

// TestFleetObserverIdentity: an observed sharded run's final
// exposition must be byte-identical to the observed single-engine
// reference — per-member gauges, aggregate, energy, completion count
// and the sample counter all replay canonically at reassembly.
func TestFleetObserverIdentity(t *testing.T) {
	specs := fleetSpecs(t, 5)
	refObs := obs.New(nil, nil)
	if _, err := runReference(specs, 100*time.Millisecond, refObs); err != nil {
		t.Fatal(err)
	}
	fleetObs := obs.New(nil, nil)
	if _, err := RunFleet(specs, Options{Shards: 3, Obs: fleetObs}); err != nil {
		t.Fatal(err)
	}
	if ref, got := refObs.Registry().Text(), fleetObs.Registry().Text(); ref != got {
		t.Errorf("observer exposition diverged\n--- reference ---\n%s\n--- sharded ---\n%s", ref, got)
	}
}

// TestFleetStuckErrorIdentity: the stuck-member report must name every
// unfinished member across all shards with the same bytes the
// single-engine path produced.
func TestFleetStuckErrorIdentity(t *testing.T) {
	specs := []NodeSpec{
		throttleSpec("stuck", 15*time.Second, 0.1, 0.001),
		{Name: "quick", Config: node.IntelA100(), Workload: fleetProg("quick", 1000), Seed: 7},
	}
	_, refErr := runReference(specs, 100*time.Millisecond, nil)
	if refErr == nil {
		t.Fatal("reference: stuck member must fail")
	}
	_, fleetErr := RunFleet(specs, Options{Shards: 2})
	if fleetErr == nil {
		t.Fatal("sharded: stuck member must fail")
	}
	if refErr.Error() != fleetErr.Error() {
		t.Errorf("stuck errors diverged:\nreference: %v\nsharded:   %v", refErr, fleetErr)
	}
	if !strings.Contains(fleetErr.Error(), "stuck") || strings.Contains(fleetErr.Error(), "quick") {
		t.Errorf("stuck list wrong: %v", fleetErr)
	}
}

// TestFleetWasteLedger: the fleet uncore attribution must balance
// (baseline + useful + waste == independently integrated total within
// the ulp budget) and must not perturb the run itself.
func TestFleetWasteLedger(t *testing.T) {
	specs := fleetSpecs(t, 4)
	plain, err := RunFleet(specs, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	wasted, err := RunFleet(specs, Options{Shards: 2, Waste: true})
	if err != nil {
		t.Fatal(err)
	}
	if wasted.UncoreWaste == nil {
		t.Fatal("Waste option produced no attribution")
	}
	if !wasted.WasteBalanced {
		t.Errorf("attribution imbalance %v J over total %v J",
			wasted.UncoreWaste.Imbalance(), wasted.UncoreWaste.TotalJ)
	}
	if wasted.UncoreWaste.TotalJ <= 0 || wasted.UncoreWaste.BaselineJ <= 0 {
		t.Errorf("implausible attribution: %+v", wasted.UncoreWaste)
	}
	wasted.UncoreWaste, wasted.WasteBalanced = nil, false
	if mustJSON(t, wasted) != mustJSON(t, plain) {
		t.Error("waste ledger perturbed the run result")
	}
}

// TestFleetSingleMemberEqualsRun pins one way to wire a simulated node
// run: a 1-member fleet reports bit for bit the energy and completion
// time harness.Run reports for the same spec, across governors (incl.
// a power cap) and fault plans.
func TestFleetSingleMemberEqualsRun(t *testing.T) {
	govs := []struct {
		name    string
		factory harness.GovernorFactory
	}{
		{"default", func() governor.Governor { return governor.NewDefault() }},
		{"magus", magusFactory},
		{"ups", func() governor.Governor { return governor.NewUPS(governor.UPSConfig{}) }},
		{"duf", func() governor.Governor { return governor.NewDUF(governor.DUFConfig{}) }},
		{"magus+cap150", func() governor.Governor { return governor.WithPowerCap(magusFactory(), 150) }},
	}
	for _, app := range []string{"bfs", "srad", "unet"} {
		prog, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("no workload %q", app)
		}
		for _, g := range govs {
			for _, planName := range []string{"", "pcm-flaky", "chaos"} {
				var plan *faults.Plan
				if planName != "" {
					if plan, ok = faults.Preset(planName); !ok {
						t.Fatalf("fault preset %s missing", planName)
					}
				}
				label := fmt.Sprintf("%s/%s/faults=%q", app, g.name, planName)
				spec := NodeSpec{Name: "n0", Config: node.IntelA100(), Workload: prog,
					Factory: g.factory, Seed: 1, Faults: plan}
				fl, err := RunFleet([]NodeSpec{spec}, Options{TopK: 1})
				if err != nil {
					t.Fatalf("%s: fleet: %v", label, err)
				}
				run, err := harness.Run(spec.Config, prog, g.factory(), harness.Options{Seed: 1, Faults: plan})
				if err != nil {
					t.Fatalf("%s: run: %v", label, err)
				}
				top := fl.Top[0]
				if top.EnergyJ != run.TotalEnergyJ() || top.DoneS != run.RuntimeS {
					t.Errorf("%s: fleet member energy %v J, done %v s; harness.Run %v J, %v s",
						label, top.EnergyJ, top.DoneS, run.TotalEnergyJ(), run.RuntimeS)
				}
			}
		}
	}
}
