// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload at one seed in a single process
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end metrics every workload
// shares (setup_s, peak_rss_mb, sim_s_per_s); with -trace 1 they are
// the shared per-layer metrics. The workload's own metrics — the serve
// latencies, the virtual energy figures and every layer metric named
// after its workload (sweep.*, fleet.*, serve.*, tournament.*) — are
// printed by name and unit on the "metric" lines before it, together
// with the host environment, each metric's run-to-run spread inside
// the run and the digest of the simulated outputs.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// The benchmark measures each layer from outside, by timing calls into
// the layer's public functions; it does not instrument the program.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are committed in
// digests.json.
const defaultSeed = 1

//go:embed digests.json
var committedDigests []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run hands back to main.
type report struct {
	attempted, failed int
	// digest hashes the simulated outputs; it is independent of the
	// host, of timing and of tracing.
	digest string
	// setupS is the median of the workload's repeated set-ups.
	setupS float64
	// simRates holds the per-round simulated-seconds-per-second rates
	// whose median is sim_s_per_s.
	simRates []float64
	// metrics holds the workload's own metrics in print order.
	names   []string
	metrics map[string]metric
	// spread holds the within-run spread (IQR / median) of metrics
	// measured over several rounds.
	spread map[string]float64
	notes  []string
	tr     *tracer
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, spread: map[string]float64{}}
}

// set records a workload metric.
func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setSamples records the median of per-round samples and their spread.
func (r *report) setSamples(name, unit string, xs []float64) {
	r.set(name, unit, median(xs))
	if s, ok := spreadOf(xs); ok {
		r.spread[name] = s
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "FAIL "+fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type params struct {
	seed    int64
	seconds float64
	trace   bool
	nproc   int
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(p params) (*report, error)
}{
	"paper-sweep": {runSweep, tracedSweep},
	"fleet":       {runFleet, tracedFleet},
	"serve-open":  {runServe, tracedServe},
	"tournament":  {runTournament, tracedTournament},
}

// endToEnd and perLayer are the metrics of the final JSON line; they
// match BENCHMARK.json.
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "sim_s_per_s"}
	perLayer = []string{"layer.tick_ns", "layer.ticks", "layer.governor.ns_per_invoke",
		"layer.governor.invokes", "layer.trace_overhead_frac"}
)

func main() {
	var (
		name    = flag.String("workload", "paper-sweep", "workload: paper-sweep, fleet, serve-open or tournament")
		seed    = flag.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var committed map[string]string
	if err := json.Unmarshal(committedDigests, &committed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: digests.json: %v\n", err)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) < nproc {
		nproc = runtime.GOMAXPROCS(0)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: nproc}

	run := w.run
	if p.trace {
		run = w.traced
	}
	start := time.Now()
	rep, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds()

	correct := rep.failed == 0
	digestState := "not checked (only the default seed's digest is committed)"
	if *seed == defaultSeed {
		want, ok := committed[*name]
		switch {
		case !ok:
			digestState = "MISSING from digests.json"
			correct = false
		case want != rep.digest:
			digestState = "MISMATCH, committed " + want
			correct = false
		default:
			digestState = "matches committed"
		}
	}

	out := bufio.NewWriter(os.Stdout)
	env := environment(p, *name, wall)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", envJSON)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		line := fmt.Sprintf("metric %s %s %s", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if s, ok := rep.spread[n]; ok {
			line += fmt.Sprintf(" spread=%.4f", s)
		}
		fmt.Fprintln(out, line)
	}
	if rep.tr != nil {
		path, err := rep.tr.write(*name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "spans %s (%d spans)\n", path, len(rep.tr.spans))
	}
	fmt.Fprintf(out, "digest %s %s: %s\n", *name, rep.digest, digestState)

	keys := endToEnd
	if p.trace {
		keys = perLayer
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, map[string]metric{}}
	for _, k := range keys {
		m, ok := rep.metrics[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, k)
			os.Exit(1)
		}
		final.Metrics[k] = m
	}
	if final.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", *name)
		os.Exit(1)
	}
	js, _ := json.Marshal(final)
	fmt.Fprintf(out, "%s\n", js)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// setEndToEnd fills the shared end-to-end metrics from the report's
// set-up time, per-round rates and the process's peak memory.
func (r *report) setEndToEnd() {
	r.set("setup_s", "s", r.setupS)
	r.setSamples("sim_s_per_s", "vs/s", r.simRates)
	rates := make([]string, len(r.simRates))
	for i, v := range r.simRates {
		rates[i] = strconv.FormatFloat(v, 'f', 1, 64)
	}
	r.note("sim_s_per_s per round: %s", strings.Join(rates, " "))
	r.set("peak_rss_mb", "MiB", peakRSSMiB())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// environment records what a result depends on besides the code.
func environment(p params, name string, wall float64) map[string]any {
	env := map[string]any{
		"workload":   name,
		"seed":       p.seed,
		"seconds":    p.seconds,
		"trace":      p.trace,
		"wall_s":     wall,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var vcs []string
		for _, s := range bi.Settings {
			if strings.HasPrefix(s.Key, "vcs.") {
				vcs = append(vcs, s.Key+"="+s.Value)
			}
		}
		if len(vcs) > 0 {
			sort.Strings(vcs)
			env["commit"] = strings.Join(vcs, " ")
		}
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// outDir is where traced runs leave their span files: inside the
// checkout, under the build directory the repository ignores.
func outDir() (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	return dir, os.MkdirAll(dir, 0o755)
}
