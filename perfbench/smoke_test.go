package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeEveryMetricEmitted runs every workload briefly on small data,
// untraced and traced, and checks that exactly the metrics BENCHMARK.json
// names come out with their units, and that no check failed.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and runs sweeps")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the bench does not run", w.Name)
		}
	}
	// Every workload the bench runs, gated or not, emits the full set.
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			run := workloads[name]
			cfg := config{workload: name, seed: 7, window: 1500 * time.Millisecond, trace: trace, out: t.TempDir(), small: true}
			oc, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if oc.failed != 0 || oc.attempted < 1 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", name, trace, oc.attempted, oc.failed, oc.failures)
			}
			if len(oc.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(oc.metrics), len(want))
			}
			for _, sm := range want {
				got, ok := oc.metrics[sm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, sm.Name)
				case got.Unit != sm.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, sm.Name, got.Unit, sm.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, sm.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, sm.Name, got.Value)
				}
			}
			if trace {
				for _, f := range []string{"cpu.pprof", "spans.jsonl"} {
					if _, err := os.Stat(filepath.Join(traceDir(cfg), f)); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runMain([]string{"-workload", "nope", "-out", t.TempDir()}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}

func TestCompareRefusesMixedHostShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		rec := record{
			Provenance: provenance{Workload: "kv-read-mostly", NProc: nproc, GOMAXPROCS: nproc},
			Result:     result{Correct: true, Attempted: 1, Metrics: metricSet{"ops_per_s": {Value: 1, Unit: "1/s"}}},
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(recordPrefix+string(b)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := compare(spec, write("a.log", 2), write("b.log", 4), &out)
	if err == nil || !strings.Contains(err.Error(), "host shapes") {
		t.Fatalf("compare across host shapes: err = %v", err)
	}
	if err := compare(spec, write("c.log", 2), write("d.log", 2), &out); err != nil {
		t.Fatalf("compare on one host shape: %v", err)
	}
}
