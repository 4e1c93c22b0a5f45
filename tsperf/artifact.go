package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// schema versions the BENCH_<workload>.json layout. Schema 1 is the
// two-arm layout cmd/tsbench writes; -compare skips it.
const schema = 2

// artifact is one workload run's BENCH_<workload>.json.
type artifact struct {
	Schema     int                       `json:"schema"`
	Workload   string                    `json:"workload"`
	Why        string                    `json:"why"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Quick      bool                      `json:"quick"`
	Traced     bool                      `json:"traced"`
	Sizes      map[string]int            `json:"sizes"`
	Env        environment               `json:"env"`
	Correct    bool                      `json:"correct"`
	Attempted  int64                     `json:"attempted"`
	Failed     int64                     `json:"failed"`
	Iterations int                       `json:"iterations"`
	Metrics    map[string]artifactMetric `json:"metrics"`
}

// artifactMetric is a reported value with the spread of the per-iteration
// values it is the median of (absent for pooled percentiles and traced
// metrics).
type artifactMetric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// environment is what a number depends on besides the code.
type environment struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPU         string `json:"cpu"`
	Go          string `json:"go"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Kernel      string `json:"kernel"`
	TempFS      string `json:"temp_fs"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified bool   `json:"vcs_modified"`
}

func readEnvironment() environment {
	e := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		TempFS:     fsType(os.TempDir()),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.VCSRevision = s.Value
			case "vcs.modified":
				e.VCSModified = s.Value == "true"
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fsType names the filesystem holding dir; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return ""
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("%#x", st.Type)
}

// writeArtifact records one workload run as BENCH_<workload>.json.
func writeArtifact(dir string, def workloadDef, b bench, o options, res runOutcome) error {
	a := artifact{
		Schema: schema, Workload: def.name, Why: def.why, Seed: o.seed, Seconds: o.seconds,
		Quick: o.quick, Traced: o.trace, Sizes: b.sizes(), Env: readEnvironment(),
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Iterations: res.iterations,
		Metrics: map[string]artifactMetric{},
	}
	for k, v := range res.Metrics {
		m := artifactMetric{Value: v.Value, Unit: v.Unit}
		if s, ok := res.spread[k]; ok && !o.trace {
			m.Min, m.Max = &s[0], &s[1]
		}
		a.Metrics[k] = m
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+def.name+".json"), append(out, '\n'), 0o644)
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specEntry `json:"workloads"`
	EndToEnd   []specEntry `json:"end_to_end"`
	PerLayer   []specEntry `json:"per_layer"`
}

type specEntry struct {
	Name   string   `json:"name"`
	Why    string   `json:"why,omitempty"`
	Unit   string   `json:"unit,omitempty"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readArtifacts loads the schema-2 BENCH_*.json in dir by workload. A
// missing directory holds none; older schemas are named and skipped.
func readArtifacts(dir string, w io.Writer) (map[string]artifact, error) {
	out := map[string]artifact{}
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(w, "tsperf compare: %s does not exist, nothing to compare\n", dir)
		return out, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var a artifact
		if err := json.Unmarshal(b, &a); err != nil {
			fmt.Fprintf(w, "tsperf compare: skipping %s: %v\n", p, err)
			continue
		}
		if a.Schema != schema {
			fmt.Fprintf(w, "tsperf compare: skipping %s: schema %d, not %d\n", p, a.Schema, schema)
			continue
		}
		out[a.Workload] = a
	}
	return out, nil
}

// compareDirs compares the current artifacts against the previous ones.
// Every end-to-end metric of every workload is gated on its direction-
// aware bound from the spec, and any rise in the failed share fails. An
// environment difference is printed; a different CPU or GOMAXPROCS makes
// the numbers incomparable, so that workload is not gated. Workloads on
// one side only are reported and never fail.
func compareDirs(specPath, prevDir, curDir string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	prev, err := readArtifacts(prevDir, w)
	if err != nil {
		return err
	}
	cur, err := readArtifacts(curDir, w)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		c := cur[name]
		p, ok := prev[name]
		if !ok {
			fmt.Fprintf(w, "tsperf compare %s: no previous artifact\n", name)
			continue
		}
		for _, d := range envDiff(p.Env, c.Env) {
			fmt.Fprintf(w, "tsperf compare %s: environment: %s\n", name, d)
		}
		if p.Env.CPU != c.Env.CPU || p.Env.GOMAXPROCS != c.Env.GOMAXPROCS {
			fmt.Fprintf(w, "tsperf compare %s: different CPU or GOMAXPROCS, not gated\n", name)
			continue
		}
		if failShare(c) > failShare(p) {
			regressions = append(regressions, fmt.Sprintf("%s: failed share %.4f -> %.4f", name, failShare(p), failShare(c)))
		}
		for _, m := range spec.EndToEnd {
			was, okP := p.Metrics[m.Name]
			now, okC := c.Metrics[m.Name]
			if !okP || !okC || m.Bound == nil || was.Value == 0 {
				continue
			}
			worse := (now.Value - was.Value) / was.Value
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "tsperf compare %s %-16s %14.4f -> %14.4f %-6s (%+.1f%% worse, bound %.0f%%)\n",
				name, m.Name, was.Value, now.Value, m.Unit, 100*worse, 100**m.Bound)
			if worse > *m.Bound {
				regressions = append(regressions, fmt.Sprintf("%s %s: %.4f -> %.4f %s, %.1f%% worse than the %.0f%% bound",
					name, m.Name, was.Value, now.Value, m.Unit, 100*worse, 100**m.Bound))
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

func failShare(a artifact) float64 {
	if a.Attempted == 0 {
		return 0
	}
	return float64(a.Failed) / float64(a.Attempted)
}

// envDiff lists the environment fields that differ.
func envDiff(a, b environment) []string {
	var out []string
	add := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v -> %v", name, x, y))
		}
	}
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("nproc", a.NumCPU, b.NumCPU)
	add("cpu", a.CPU, b.CPU)
	add("go", a.Go, b.Go)
	add("goos", a.GOOS, b.GOOS)
	add("goarch", a.GOARCH, b.GOARCH)
	add("kernel", a.Kernel, b.Kernel)
	add("temp_fs", a.TempFS, b.TempFS)
	add("vcs_revision", a.VCSRevision, b.VCSRevision)
	add("vcs_modified", a.VCSModified, b.VCSModified)
	return out
}
