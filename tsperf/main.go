// Command tsperf is the repository's benchmark. It runs the distributed
// runtime as users run it — the defaults cmd/tsnode and cmd/tsload ship —
// on four closed-loop workloads, checks every run's output against the
// sequential Figure 5 replay, and prints every metric by name with its
// unit, ending with one JSON line:
//
//	bash tsperf/run.sh --workload pairs-tcp --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md gives the reasons in full):
//
//	pairs-tcp     2 nodes, 32 channel pairs over one TCP stream, fail-stop:
//	              coalescing, delta encoding and scheduler handoff do the work
//	star-durable  4 servers and 32 clients, any-source Recv, crash-recovery
//	              journal with group commit: the local mailbox path and fsync
//	pairs-lossy   2 nodes, 16 pairs, -async synchronizer over a 2%-drop link:
//	              retransmission, adaptive RTO and dedup
//	collect-tree  pre-stamped client-server records streamed into a 4-leaf
//	              spilling collector tree: verification and spill, no runtime
//
// A run sets up, runs one untimed warm-up iteration at a tenth of the size,
// then repeats measured iterations until -seconds have passed (at least
// three) and reports medians over iterations; latency percentiles are exact
// nearest-rank values over every message of the run. -trace 1 splits the
// time between an untraced and a traced pass and reports the per-layer
// metrics instead: the traced pass times calls into each layer's public
// functions from outside and reads the counters the program already
// exports; the program itself is not instrumented further.
//
// -out writes BENCH_<workload>.json (schema 2, with the environment);
// -compare DIR compares the -out directory's artifacts against DIR's and
// fails when an end-to-end metric is worse by more than its bound in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings one workload run shares with its iterations.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	// corrupt alters one collected stamp before verification, so tests can
	// check that a wrong output fails the run.
	corrupt bool
}

// minIterations is the fewest measured iterations a full-size pass runs,
// however short -seconds is, so a median always has company.
const minIterations = 3

// warmShare is the measuring time's ratio to the full-size warm-up's.
const warmShare = 5

// setupReps is how often a workload with a once-per-run set-up repeats it;
// setup_s is the median.
const setupReps = 3

// workloadDef names one workload and says why the benchmark has it.
type workloadDef struct {
	name string
	why  string
	new  func(o options) bench
}

var workloads = []workloadDef{
	{"pairs-tcp", "one shared TCP stream: coalescing, delta encoding and scheduler handoff do the work; control for journal, sync and tree changes", newPairsTCP},
	{"star-durable", "many-to-one any-source receives, half on the local mailbox path, journal group commit and fsync", newStarDurable},
	{"pairs-lossy", "async synchronizer over a 2% drop link: retransmission, adaptive RTO and dedup do the work", newPairsLossy},
	{"collect-tree", "streaming verification and spill with no node runtime: control for runtime changes", newCollectTree},
}

// bench is one workload's implementation.
type bench interface {
	// setup does the workload's once-per-run set-up and reports its
	// duration; workloads that set up per iteration return zero.
	setup() (time.Duration, error)
	// iterate runs one iteration and fills in its outputs.
	iterate(it *iteration) error
	// sizes describes the workload's size at full scale.
	sizes() map[string]int
}

// iteration is one warm-up or measured run of a workload.
type iteration struct {
	// Inputs.
	index   int
	scale   int  // the size divisor: 1, or 10 for the warm-up
	traced  bool // measure the per-layer metrics
	probe   bool // also replay this iteration's records through the layers
	corrupt bool

	// Outputs.
	setup   time.Duration // per-iteration set-up, zero if the workload has none
	msgs    int           // messages attempted, set before the timed region
	win     windowStats
	lat     []int64 // nanoseconds per message, in no particular order
	bytes   int64   // bytes the workload's data path carried
	verdict time.Duration
	layers  map[string]float64
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 20, "measurement time per workload, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced pass instead of the end-to-end metrics")
	quick := fs.Bool("quick", false, "shrink every workload for smoke runs and tests")
	outDir := fs.String("out", "", "directory to write BENCH_<workload>.json to")
	compareDir := fs.String("compare", "", "compare the -out directory's BENCH_*.json against this directory's instead of benchmarking")
	specPath := fs.String("spec", "BENCHMARK.json", "with -compare: the benchmark declaration holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "tsperf: usage: tsperf [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-out dir] [-compare dir]")
		return 2
	}
	if *compareDir != "" {
		cur := *outDir
		if cur == "" {
			cur = "."
		}
		if err := compareDirs(*specPath, *compareDir, cur, stdout); err != nil {
			fmt.Fprintln(stderr, "tsperf:", err)
			return 1
		}
		return 0
	}
	selected, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "tsperf:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace == 1}
	return execute(selected, o, *outDir, stdout, stderr)
}

// execute runs the selected workloads, prints their reports and the
// result line, and returns the exit code: 1 if any run failed.
func execute(selected []workloadDef, o options, outDir string, stdout, stderr io.Writer) int {
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range selected {
		b := def.new(o)
		res, runErr := runWorkload(b, o)
		if runErr != nil {
			fmt.Fprintf(stderr, "tsperf: %s: %v\n", def.name, runErr)
		}
		printTable(stdout, def.name, res)
		if outDir != "" {
			if err := writeArtifact(outDir, def, b, o, res); err != nil {
				fmt.Fprintln(stderr, "tsperf:", err)
				return 1
			}
		}
		if len(selected) == 1 {
			final = res.result
		} else {
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for k, v := range res.Metrics {
				final.Metrics[def.name+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "tsperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, workloadNames())
}

// runOutcome is one workload run: the result line plus the per-iteration
// values the artifact records.
type runOutcome struct {
	result
	iterations int
	spread     map[string][2]float64 // min and max over iterations
}

// runWorkload sets up, warms up, and measures one workload. A failed
// iteration stops the run and counts every message attempted as failed.
func runWorkload(b bench, o options) (runOutcome, error) {
	out := runOutcome{result: result{Metrics: map[string]metricValue{}}}
	fail := func(attempted int, err error) (runOutcome, error) {
		out.Correct = false
		out.Attempted = int64(attempted)
		out.Failed = int64(attempted)
		out.Metrics = map[string]metricValue{}
		return out, err
	}
	reps := setupReps
	minIters := minIterations
	if o.quick {
		reps, minIters = 1, 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		d, err := b.setup()
		if err != nil {
			return fail(1, fmt.Errorf("setup: %w", err))
		}
		if d > 0 {
			setups = append(setups, d.Seconds())
		}
	}
	// Warm up untimed: one iteration at a tenth of the size, then full-size
	// iterations for a fifth of the measuring time, so the heap, the
	// runtime's threads and the kernel's socket and page caches reach the
	// state the measured iterations then run in.
	warm := &iteration{index: -1, scale: 10}
	if err := b.iterate(warm); err != nil {
		return fail(max(warm.msgs, 1), fmt.Errorf("warm-up: %w", err))
	}
	for start := time.Now(); time.Since(start).Seconds() < o.seconds/warmShare; {
		warm := &iteration{index: -1, scale: 1}
		if err := b.iterate(warm); err != nil {
			return fail(max(warm.msgs, 1), fmt.Errorf("warm-up: %w", err))
		}
	}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	attempted := 0
	measure := func(traced bool) ([]*iteration, error) {
		var its []*iteration
		start := time.Now()
		for i := 0; i < minIters || time.Since(start).Seconds() < budget; i++ {
			it := &iteration{index: i, scale: 1, traced: traced, probe: traced && i == 0, corrupt: o.corrupt && i == 0}
			if traced {
				it.layers = map[string]float64{}
			}
			err := b.iterate(it)
			attempted += it.msgs
			if err != nil {
				return nil, fmt.Errorf("iteration %d: %w", i, err)
			}
			if it.setup > 0 {
				setups = append(setups, it.setup.Seconds())
			}
			its = append(its, it)
		}
		return its, nil
	}
	plain, err := measure(false)
	if err != nil {
		return fail(attempted, err)
	}
	e2e, spread := endToEndMetrics(plain, setups)
	out.Correct = true
	out.Attempted = int64(attempted)
	out.iterations = len(plain)
	out.spread = spread
	if !o.trace {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		return out, nil
	}
	traced, err := measure(true)
	if err != nil {
		return fail(attempted, err)
	}
	out.Attempted = int64(attempted)
	out.iterations += len(traced)
	layers := layerMetrics(traced, e2e)
	for _, m := range perLayer {
		out.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	return out, nil
}

// endToEndMetrics reduces the untraced iterations to the end-to-end
// metrics: medians over iterations, except the latency percentiles, which
// are exact over every message of every iteration.
func endToEndMetrics(its []*iteration, setups []float64) (map[string]float64, map[string][2]float64) {
	per := map[string][]float64{}
	var lat []int64
	for _, it := range its {
		n := float64(it.msgs)
		per["msgs_per_s"] = append(per["msgs_per_s"], n/it.win.wall.Seconds())
		per["cpu_us_per_msg"] = append(per["cpu_us_per_msg"], it.win.cpu().Seconds()*1e6/n)
		per["bytes_per_msg"] = append(per["bytes_per_msg"], float64(it.bytes)/n)
		per["allocs_per_msg"] = append(per["allocs_per_msg"], float64(it.win.allocs)/n)
		per["verdict_s"] = append(per["verdict_s"], it.verdict.Seconds())
		per["heap_peak_mb"] = append(per["heap_peak_mb"], float64(it.win.heapPeak)/(1<<20))
		lat = append(lat, it.lat...)
	}
	per["setup_s"] = setups
	m := map[string]float64{}
	spread := map[string][2]float64{}
	for k, vals := range per {
		m[k] = median(vals)
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		if len(s) > 0 {
			spread[k] = [2]float64{s[0], s[len(s)-1]}
		}
	}
	sorted := sortedCopy(lat)
	m["msg_p50_us"] = float64(percentile(sorted, p50)) / 1e3
	m["msg_p99_us"] = float64(percentile(sorted, p99)) / 1e3
	m["msg_p999_us"] = float64(percentile(sorted, p999)) / 1e3
	m["samples"] = float64(len(sorted))
	return m, spread
}

// layerMetrics reduces the traced iterations to the per-layer metrics:
// the median over traced iterations of every value the workload measured,
// the runtime's own accounting of each traced window, the figures that
// compare the traced pass with the untraced one, and the untraced pass's
// diagnostics, which spread too widely across runs to gate on.
func layerMetrics(traced []*iteration, e2e map[string]float64) map[string]float64 {
	per := map[string][]float64{}
	var tput []float64
	for _, it := range traced {
		n := float64(it.msgs)
		w := it.win
		it.layers["runtime.sched_wait_mean_us"] = w.sched.meanSeconds() * 1e6
		it.layers["runtime.sched_wait_p99_us"] = w.sched.quantileSeconds(p99) * 1e6
		it.layers["runtime.mutex_wait_us_per_msg"] = w.mutexWait * 1e6 / n
		it.layers["runtime.gc_cycles"] = float64(w.gcCycles)
		if w.totalCPU > 0 {
			it.layers["runtime.gc_cpu_share"] = w.gcCPU / w.totalCPU
		}
		if w.cpu() > 0 {
			it.layers["runtime.sys_cpu_share"] = w.sys.Seconds() / w.cpu().Seconds()
		}
		for k, v := range it.layers {
			per[k] = append(per[k], v)
		}
		tput = append(tput, n/w.wall.Seconds())
	}
	m := map[string]float64{}
	for k, vals := range per {
		m[k] = median(vals)
	}
	if cpu := e2e["cpu_us_per_msg"]; cpu > 0 {
		m["ledger.residual_share"] = 1 - m["ledger.layer_us_per_msg"]/cpu
	}
	if base := e2e["msgs_per_s"]; base > 0 {
		m["trace.overhead_share"] = 1 - median(tput)/base
	}
	for _, k := range []string{"verdict_s", "cpu_us_per_msg", "msg_p50_us", "msg_p99_us", "msg_p999_us", "samples"} {
		m[k] = e2e[k]
	}
	return m
}

// printTable writes the human-readable report of one workload run.
func printTable(w io.Writer, name string, res runOutcome) {
	fmt.Fprintf(w, "tsperf %s: correct=%v attempted=%d failed=%d iterations=%d\n",
		name, res.Correct, res.Attempted, res.Failed, res.iterations)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := res.Metrics[k]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, v.Value, v.Unit)
	}
}

// scratchDir makes a fresh temporary directory for one iteration's
// journals and spill files.
func scratchDir() (string, error) {
	dir, err := os.MkdirTemp("", "tsperf-")
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

// removeAll deletes an iteration's scratch directory, reporting a failure
// only if nothing else went wrong first.
func removeAll(dir string, err *error) {
	if rerr := os.RemoveAll(dir); rerr != nil && *err == nil {
		*err = rerr
	}
}

var errVerify = errors.New("verification failed")
