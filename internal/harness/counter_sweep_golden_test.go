package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/checkpoint"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
)

const counterSweepGolden = "testdata/counter_sweep.golden"

// counterSweepHashes runs the per-core counter sweepers (UPS reads both
// fixed counters of every CPU each invocation, DUF reads instructions
// retired) under MSR fault presets on Intel+A100, and returns one line
// per artifact: the SHA-256 of the encoded checkpoint at 1, 3 and 5 s,
// and of the final run record. A read the fault plan fails never
// reaches the node, so a faulted sweep publishes the counters late or
// not at all; these bytes pin that the register file holds the same
// values at every point a read or a checkpoint can see.
func counterSweepHashes(t *testing.T) []byte {
	t.Helper()
	govs := []struct {
		name string
		make func() governor.Governor
	}{
		{"ups", func() governor.Governor { return governor.NewUPS(governor.DefaultUPSConfig()) }},
		{"duf", func() governor.Governor { return governor.NewDUF(governor.DefaultDUFConfig()) }},
	}
	prog := mustProg(t, "srad")
	const seed = 11
	var out bytes.Buffer
	for _, g := range govs {
		for _, planName := range []string{"msr-flaky", "chaos"} {
			plan, ok := faults.Preset(planName)
			if !ok {
				t.Fatalf("no fault preset %q", planName)
			}
			plan.Seed = seed
			s, err := NewSteppable(node.IntelA100(), prog, g.make(), Options{
				Seed: seed, Faults: plan, TraceInterval: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			label := g.name + "/" + planName
			for _, at := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second} {
				if done, err := s.Advance(at - s.Now()); err != nil {
					t.Fatal(err)
				} else if done {
					t.Fatalf("%s finished before %v", label, at)
				}
				d, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := checkpoint.Encode(d)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(blob)
				fmt.Fprintf(&out, "%s ckpt@%v %s\n", label, at, hex.EncodeToString(sum[:]))
			}
			for !s.Done() {
				if _, err := s.Advance(time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			res := s.Result()
			if res.FaultsInjected.Total() == 0 {
				t.Fatalf("%s injected no faults; the golden would not cover a failed sweep", label)
			}
			var rec bytes.Buffer
			if err := NewRecord(res, seed).Write(&rec); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(rec.Bytes())
			fmt.Fprintf(&out, "%s result %s\n", label, hex.EncodeToString(sum[:]))
		}
	}
	return out.Bytes()
}

// TestCounterSweepGolden pins the checkpoint and result bytes of
// faulted UPS and DUF runs. The golden was generated before the node
// published its core counters once per step instead of once per read;
// regenerate with -update only for an intended change of simulated
// output.
func TestCounterSweepGolden(t *testing.T) {
	got := counterSweepHashes(t)
	if *update {
		if err := os.WriteFile(counterSweepGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(counterSweepGolden))
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run CounterSweepGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("faulted counter sweeps drifted from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
