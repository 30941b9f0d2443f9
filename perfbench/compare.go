package main

// Compare mode: perfbench compare [-spec BENCHMARK.json] base.log change.log
//
// Each log holds the standard output of any number of runs. The records
// (one per run) are grouped by workload and run kind, and every metric is
// reported as median and quartiles per side, with the change of the
// median and, for end-to-end metrics, whether it worsened by more than the
// bound BENCHMARK.json fixes. Results from different host shapes (CPU
// count, GOMAXPROCS) are refused: their numbers are not comparable.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no %q lines", path, strings.TrimSpace(recordPrefix))
	}
	return recs, nil
}

type hostShape struct{ nproc, gomaxprocs int }

func shapeOf(recs []record) (hostShape, error) {
	s := hostShape{recs[0].Provenance.NProc, recs[0].Provenance.GOMAXPROCS}
	for _, r := range recs[1:] {
		if (hostShape{r.Provenance.NProc, r.Provenance.GOMAXPROCS}) != s {
			return s, fmt.Errorf("mixed host shapes within one side")
		}
	}
	return s, nil
}

func compareMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] base.log change.log")
		return 2
	}
	if err := compare(*specPath, fl.Arg(0), fl.Arg(1), w); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

func compare(specPath, basePath, changePath string, w io.Writer) error {
	var spec benchSpec
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	bs, err := shapeOf(base)
	if err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}
	cs, err := shapeOf(change)
	if err != nil {
		return fmt.Errorf("%s: %w", changePath, err)
	}
	if bs != cs {
		return fmt.Errorf("refusing to compare across host shapes: base nproc=%d gomaxprocs=%d, change nproc=%d gomaxprocs=%d",
			bs.nproc, bs.gomaxprocs, cs.nproc, cs.gomaxprocs)
	}

	type group struct{ base, change []record }
	groups := map[string]*group{}
	key := func(r record) string {
		if r.Provenance.Trace {
			return r.Provenance.Workload + " (traced)"
		}
		return r.Provenance.Workload
	}
	for _, r := range base {
		if groups[key(r)] == nil {
			groups[key(r)] = &group{}
		}
		groups[key(r)].base = append(groups[key(r)].base, r)
	}
	for _, r := range change {
		if g := groups[key(r)]; g != nil {
			g.change = append(g.change, r)
		}
	}
	names := make([]string, 0, len(groups))
	for n, g := range groups {
		if len(g.change) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "host shape: nproc=%d gomaxprocs=%d\n", bs.nproc, bs.gomaxprocs)
	for _, n := range names {
		g := groups[n]
		fmt.Fprintf(w, "\n## %s (base %d runs, change %d runs)\n", n, len(g.base), len(g.change))
		fmt.Fprintf(w, "| metric | unit | base median [q1, q3] | change median [q1, q3] | change | verdict |\n|---|---|---|---|---|---|\n")
		var metrics []string
		for m := range g.base[0].Result.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			bv, cv := values(g.base, m), values(g.change, m)
			if len(cv) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(bv)
			c1, c2, c3 := quartiles(cv)
			delta := ratio(c2-b2, b2)
			verdict := ""
			for _, e := range spec.EndToEnd {
				if e.Name != m {
					continue
				}
				worse := delta
				if e.Better == "higher" {
					worse = -delta
				}
				verdict = "within bound"
				if worse > e.Bound {
					verdict = fmt.Sprintf("WORSE than bound %.2f", e.Bound)
				}
			}
			fmt.Fprintf(w, "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %s |\n",
				m, g.base[0].Result.Metrics[m].Unit, b2, b1, b3, c2, c1, c3, 100*delta, verdict)
		}
	}
	return nil
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
