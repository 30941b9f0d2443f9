package main

// The predict-sweep workload: the Section 6 question "which (N, R, W) is
// fastest while meeting this staleness SLA", answered by pbs.OptimizeSLA
// back to back. No cluster runs; the time goes to WARS sampling, the
// shared-trial scoring and the SLA ranking.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"pbs"
	"pbs/internal/dist"
	"pbs/internal/rng"
	"pbs/internal/wars"
)

type sweepSpec struct {
	maxN   int
	trials int
	target pbs.SLATarget
}

func sweepFor(small bool) sweepSpec {
	s := sweepSpec{maxN: 5, trials: 100000, target: pbs.SLATarget{K: 1, TWindow: 202, MinPConsistent: 0.999}}
	if small {
		s.trials = 10000
	}
	return s
}

const (
	// referenceSweeps is how many times the set-up makes the single-worker
	// reference sweep; setup_s is their median.
	referenceSweeps = 3
	// minSweeps is the fewest sweeps a measured window takes, however short.
	minSweeps = 3
)

// sweeper runs OptimizeSLA and checks each result against the
// single-worker reference made at set-up.
type sweeper struct {
	spec     sweepSpec
	seed     uint64
	ref      string
	calls    int64
	failures []string
	failed   int64
}

func (s *sweeper) sweep(workers int) (time.Duration, error) {
	opts := []pbs.Option{pbs.WithTrials(s.spec.trials), pbs.WithSeed(s.seed)}
	if workers > 0 {
		opts = append(opts, pbs.WithParallelism(workers))
	}
	s.calls++
	t0 := time.Now()
	res, err := pbs.OptimizeSLA(pbs.YMMR(), s.spec.maxN, s.spec.target, opts...)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	// %+v prints every field, floats in their shortest exact form.
	got := fmt.Sprintf("%+v", *res)
	if s.ref == "" {
		s.ref = got
	} else if got != s.ref {
		s.failed++
		if len(s.failures) < 8 {
			s.failures = append(s.failures, fmt.Sprintf("sweep with %d workers differs from the single-worker reference: best %v", workers, res.Best))
		}
	}
	return d, nil
}

// sweepPass is one measured window of back-to-back sweeps.
type sweepPass struct {
	ms       []float64
	elapsed  time.Duration
	mallocs  uint64
	rt0, rt1 runtimeSample
}

func (s *sweeper) pass(window time.Duration) (*sweepPass, error) {
	p := &sweepPass{rt0: sampleRuntime()}
	m0 := mallocs()
	t0 := time.Now()
	for time.Since(t0) < window || len(p.ms) < minSweeps {
		d, err := s.sweep(0)
		if err != nil {
			return nil, err
		}
		p.ms = append(p.ms, float64(d)/float64(time.Millisecond))
	}
	p.elapsed = time.Since(t0)
	p.mallocs = mallocs() - m0
	p.rt1 = sampleRuntime()
	return p, nil
}

func (p *sweepPass) rate() float64 { return float64(len(p.ms)) / p.elapsed.Seconds() }

// runSweep is one run of predict-sweep.
func runSweep(cfg config) (*outcome, error) {
	s := &sweeper{spec: sweepFor(cfg.small), seed: cfg.seed}
	// Set-up: the single-worker reference sweep, repeated; every repeat
	// must match the first.
	var setupS []float64
	for i := 0; i < referenceSweeps; i++ {
		d, err := s.sweep(1)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	if _, err := s.sweep(0); err != nil { // warm-up, checked, not measured
		return nil, err
	}
	base, err := s.pass(cfg.window)
	if err != nil {
		return nil, err
	}
	oc := &outcome{fsync: "none", metrics: metricSet{}}
	m := oc.metrics
	var traced *sweepPass
	if cfg.trace {
		if traced, err = s.tracedPass(cfg); err != nil {
			return nil, err
		}
		m.set("sweep_p50_ms", "ms", median(base.ms))
		m.set("trace.overhead_frac", "frac", ratio(traced.rate(), base.rate()))
		runtimeLayer(m, base.rt0, base.rt1)
		if err := s.layers(m); err != nil {
			return nil, err
		}
	} else {
		m.set("ops_per_s", "1/s", base.rate())
		m.set("op_p50_ms", "ms", median(base.ms))
		m.set("op_p90_ms", "ms", quantile(append([]float64(nil), base.ms...), 0.90))
		m.set("allocs_per_op", "count", float64(base.mallocs)/float64(len(base.ms)))
		m.set("peak_rss_mb", "MB", peakRSSMB())
		m.set("setup_s", "s", median(setupS))
	}
	oc.attempted, oc.failed, oc.failures = s.calls, s.failed, s.failures
	if cfg.trace {
		if err := finishLayers(cfg, oc); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// tracedPass repeats the window with the CPU profiler on and writes one
// span per sweep.
func (s *sweeper) tracedPass(cfg config) (*sweepPass, error) {
	dir := traceDir(cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	p, err := s.pass(cfg.window)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	sf, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	for i, ms := range p.ms {
		fmt.Fprintf(sf, `{"trace":%d,"span":1,"name":"pbs.OptimizeSLA","dur_ns":%d}`+"\n", i+1, int64(ms*1e6))
	}
	return p, sf.Close()
}

// layers times the predictor's inner layers directly with the sweep's
// inputs: the batch WARS simulation of every (R, W) per N, the
// latency-model draws, and the run queries the SLA ranking makes.
// sla.self_ms is what a sweep spends beyond its simulations: each sweep is
// paired with the same simulations right after it, so drift in host speed
// cancels, and the median difference is reported. It is a difference of
// two timings near a second and a half each, so it is noisy at the
// tens-of-milliseconds level.
func (s *sweeper) layers(m metricSet) error {
	model := dist.YMMR()
	var runs []*wars.Run
	simulate := func(workers int) (float64, error) {
		r := rng.New(s.seed)
		t0 := time.Now()
		for n := 1; n <= s.spec.maxN; n++ {
			cfgs := make([]wars.Config, 0, n*n)
			for rr := 1; rr <= n; rr++ {
				for w := 1; w <= n; w++ {
					cfgs = append(cfgs, wars.Config{R: rr, W: w})
				}
			}
			var err error
			if runs, err = wars.SimulateBatchWorkers(wars.NewIID(n, model), cfgs, s.spec.trials, r.Split(), workers); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(time.Millisecond), nil
	}
	const pairs = 3
	var sims, self []float64
	for i := 0; i < pairs; i++ {
		d, err := s.sweep(0)
		if err != nil {
			return err
		}
		sim, err := simulate(0)
		if err != nil {
			return err
		}
		sims = append(sims, sim)
		self = append(self, float64(d)/float64(time.Millisecond)-sim)
	}
	var one []float64
	for i := 0; i < 2; i++ {
		sim, err := simulate(1)
		if err != nil {
			return err
		}
		one = append(one, sim)
	}
	simMs := median(sims)
	m.set("wars.simulate_ms", "ms", simMs)
	m.set("wars.ns_per_trial", "ns", simMs*1e6/float64(s.spec.trials*s.spec.maxN))
	m.set("wars.parallel_speedup", "ratio", median(one)/simMs)
	m.set("sla.self_ms", "ms", median(self))

	// Queries on the N=maxN runs, as the ranking makes them.
	const queryReps = 2000
	t0 := time.Now()
	var sink float64
	for i := 0; i < queryReps; i++ {
		run := runs[i%len(runs)]
		sink += run.PConsistent(s.spec.target.TWindow) + run.TVisibility(s.spec.target.MinPConsistent)
	}
	m.set("wars.query_ns", "ns", float64(time.Since(t0).Nanoseconds())/(2*queryReps))

	r := rng.New(s.seed)
	legs := []dist.Dist{model.W, model.A, model.R, model.S}
	const draws = 250000
	t0 = time.Now()
	for _, d := range legs {
		for i := 0; i < draws; i++ {
			sink += d.Sample(r)
		}
	}
	m.set("dist.sample_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(draws*len(legs)))
	runtime.KeepAlive(sink)
	return nil
}
