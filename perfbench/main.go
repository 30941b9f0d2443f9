// Command perfbench is the repository benchmark. It runs one named
// workload in this process against the repository's own packages, checks
// every output it reads back, and prints the metrics as one JSON line:
//
//	perfbench -workload kv-read-mostly -seed 1 -seconds 30 -trace 0
//	perfbench compare base.log change.log
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// workload again with spans around every client call, calls each inner
// layer directly, and prints the per-layer metrics, writing spans and CPU
// and alloc profiles under -out. README.md in this directory explains the
// workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a metric. JSON has no NaN or infinity: a value with no
// samples behind it (NaN) is recorded as 0, like a layer the workload does
// not exercise, and a percentile that lands on failed calls (+Inf) as the
// largest float64, worse than any bound.
func (m metricSet) set(name, unit string, v float64) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	}
	m[name] = metric{Value: v, Unit: unit}
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	out      string // directory for traces, profiles and scratch data
	// small shrinks every data set and sweep for the package's own tests.
	small bool
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	failures          []string // first few correctness failures, for stderr
	fsync             string   // storage fsync policy ("none" in memory)
	metrics           metricSet
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"kv-read-mostly":   func(c config) (*outcome, error) { return runServing(c, readMostly(c.small)) },
	"kv-durable-batch": func(c config) (*outcome, error) { return runServing(c, durableBatch(c.small)) },
	"predict-sweep":    runSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// provenance says where and how a result was measured.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Fsync      string  `json:"fsync"`
	Start      string  `json:"start"`
}

// record is the full result with its provenance, printed on the line
// before the result and read back by the compare mode.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

const recordPrefix = "perfbench-record "

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 30, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and scratch data")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// GOMAXPROCS follows the CPUs this process may run on; before Go 1.25
	// the runtime does not read a container's CPU quota, so state it.
	runtime.GOMAXPROCS(runtime.NumCPU())

	cfg := config{workload: *wl, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	start := time.Now()
	oc, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, f := range oc.failures {
		fmt.Fprintf(stderr, "perfbench: correctness failure: %s\n", f)
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: oc.metrics}
	rec := record{
		Provenance: provenance{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commitID(), Fsync: oc.fsync, Start: start.UTC().Format(time.RFC3339),
		},
		Result: res,
	}
	printTable(stdout, rec)
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", recordPrefix, recLine)
	if cfg.trace {
		if err := os.WriteFile(filepath.Join(traceDir(cfg), "record.json"), append(recLine, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", resLine)
	return 0
}

// printTable prints the provenance and one metric per line for people.
func printTable(w io.Writer, rec record) {
	p := rec.Provenance
	fmt.Fprintf(w, "# %s seed=%d window=%gs trace=%v nproc=%d gomaxprocs=%d %s commit=%s fsync=%s\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Fsync)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
}

// traceDir is where a traced run writes its spans, profiles and record.
func traceDir(cfg config) string { return filepath.Join(cfg.out, "trace", cfg.workload) }

// commitID names the code under test: the VCS revision when the binary was
// built inside a git checkout, otherwise a digest of the module's Go
// sources and go.mod files under the working directory.
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
