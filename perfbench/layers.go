package main

// Per-layer metrics of the traced run. Each layer is measured from outside:
// the bench times its own calls into the layer's public functions, and
// reads the public counters (Cluster.Stats, Engine.Metrics, runtime
// metrics, the CoordMs in each client result). A metric whose layer the
// workload does not exercise reads 0.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/storage"
	"pbs/internal/workload"
)

// layerMetrics lists every per-layer metric with its unit, in the order
// README.md describes them.
var layerMetrics = []struct{ name, unit string }{
	{"get_p50_ms", "ms"}, {"get_p99_ms", "ms"}, {"put_p50_ms", "ms"}, {"put_p99_ms", "ms"},
	{"sweep_p50_ms", "ms"}, {"error_frac", "frac"}, {"trace.overhead_frac", "frac"},
	{"client.self_p50_us", "us"}, {"client.self_p99_us", "us"}, {"client.calls", "count"}, {"client.errors", "count"},
	{"client.stale_read_frac", "frac"}, {"client.mean_k_behind", "versions"},
	{"server.coord_get_p50_us", "us"}, {"server.coord_get_p99_us", "us"},
	{"server.coord_put_p50_us", "us"}, {"server.coord_put_p99_us", "us"},
	{"server.coord_reads", "count"}, {"server.coord_writes", "count"}, {"server.failed_ops", "count"},
	{"server.detector_flags", "count"}, {"server.applied_frac", "frac"},
	{"server.rpc_apply_ops_per_s", "1/s"}, {"server.rpc_apply_p50_us", "us"},
	{"server.rpc_get_ops_per_s", "1/s"}, {"server.rpc_get_p50_us", "us"}, {"server.rpc_allocs_per_op", "count"},
	{"kvstore.apply_ns", "ns"}, {"kvstore.get_ns", "ns"},
	{"storage.apply_p50_us", "us"}, {"storage.apply_p99_us", "us"}, {"storage.get_p50_us", "us"},
	{"storage.appends_per_sync", "ratio"}, {"storage.flushes", "count"}, {"storage.compactions", "count"},
	{"storage.sstables", "count"},
	{"storage.cluster_appends_per_sync", "ratio"}, {"storage.cluster_flushes", "count"},
	{"storage.cluster_compactions", "count"},
	{"ring.preference_ns", "ns"}, {"workload.gen_ns", "ns"},
	{"go.gc_cpu_frac", "frac"}, {"go.gc_cycles", "count"}, {"go.heap_live_mb", "MB"},
	{"wars.simulate_ms", "ms"}, {"wars.ns_per_trial", "ns"}, {"wars.parallel_speedup", "ratio"},
	{"dist.sample_ns", "ns"}, {"wars.query_ns", "ns"}, {"sla.self_ms", "ms"},
}

// finishLayers sets error_frac, sets every per-layer metric the run did
// not measure to 0, and writes the alloc profile of the whole run next to
// the trace output.
func finishLayers(cfg config, oc *outcome) error {
	m := oc.metrics
	m.set("error_frac", "frac", ratio(float64(oc.failed), float64(oc.attempted)))
	for _, lm := range layerMetrics {
		if _, ok := m[lm.name]; !ok {
			m.set(lm.name, lm.unit, 0)
		}
	}
	f, err := os.Create(filepath.Join(traceDir(cfg), "allocs.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return err
	}
	return f.Close()
}

// layerWindow is how long each directly driven layer is measured.
const layerWindow = time.Second

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// servingLayers fills the per-layer metrics of a serving workload.
func servingLayers(cfg config, env *servingEnv, base []*passResult, traced *passResult, m metricSet) error {
	spec := env.spec
	sum := summarize(base)
	last := base[len(base)-1]

	m.set("get_p50_ms", "ms", sum.kindP50[kindGet])
	m.set("get_p99_ms", "ms", sum.kindP99[kindGet])
	m.set("put_p50_ms", "ms", sum.kindP50[kindPut])
	m.set("put_p99_ms", "ms", sum.kindP99[kindPut])

	// Client layer: the span around each call minus the coordinator's time.
	var self []float64
	var calls, failedCalls int64
	var coord [nKinds][]float64
	for _, s := range traced.slots {
		for _, sp := range s.spans {
			calls++
			if sp.failed {
				failedCalls++
				continue
			}
			self = append(self, float64(sp.end-sp.start-sp.coordNs)/1e3)
		}
		for k := range coord {
			coord[k] = append(coord[k], s.coordUs[k]...)
		}
	}
	m.set("client.self_p50_us", "us", quantile(self, 0.50))
	m.set("client.self_p99_us", "us", quantile(self, 0.99))
	m.set("client.calls", "count", float64(calls))
	m.set("client.errors", "count", float64(failedCalls))
	m.set("client.stale_read_frac", "frac", env.chk.staleFrac())
	m.set("client.mean_k_behind", "versions", env.chk.meanKBehind())
	m.set("trace.overhead_frac", "frac", ratio(summarize([]*passResult{traced}).opsPerS, summarize([]*passResult{last}).opsPerS))

	m.set("server.coord_get_p50_us", "us", quantile(coord[kindGet], 0.50))
	m.set("server.coord_get_p99_us", "us", quantile(coord[kindGet], 0.99))
	m.set("server.coord_put_p50_us", "us", quantile(coord[kindPut], 0.50))
	m.set("server.coord_put_p99_us", "us", quantile(coord[kindPut], 0.99))

	// Cluster counters over this cluster's untraced measured window.
	s0, s1 := last.stats0, last.stats1
	m.set("server.coord_reads", "count", float64(s1.CoordReads-s0.CoordReads))
	m.set("server.coord_writes", "count", float64(s1.CoordWrites-s0.CoordWrites))
	m.set("server.failed_ops", "count", float64(s1.FailedOps-s0.FailedOps))
	m.set("server.detector_flags", "count", float64(s1.DetectorFlags-s0.DetectorFlags))
	applied, ignored := float64(s1.Applied-s0.Applied), float64(s1.Ignored-s0.Ignored)
	m.set("server.applied_frac", "frac", ratio(applied, applied+ignored))
	m.set("storage.cluster_appends_per_sync", "ratio", ratio(float64(s1.WALAppends-s0.WALAppends), float64(s1.WALSyncs-s0.WALSyncs)))
	m.set("storage.cluster_flushes", "count", float64(s1.StoreFlushes-s0.StoreFlushes))
	m.set("storage.cluster_compactions", "count", float64(s1.StoreCompactions-s0.StoreCompactions))
	runtimeLayer(m, last.rtBefore, last.rtAfter)

	if err := rpcLayer(env.cluster, spec.inFlight(), m); err != nil {
		return err
	}
	kvstoreLayer(cfg, spec, env.ks, m)
	if err := storageLayer(cfg, spec, env.ks, env.chk, m); err != nil {
		return err
	}
	ringLayer(cfg, env, m)
	workloadLayer(cfg, spec, env.ks, m)
	return nil
}

// rpcLayer drives the internal replication transport directly at the
// workload's in-flight depth.
func rpcLayer(c *server.Cluster, depth int, m metricSet) error {
	apply, err := c.BenchInternalRPC(false, false, depth, layerWindow)
	if err != nil {
		return fmt.Errorf("rpc apply bench: %w", err)
	}
	get, err := c.BenchInternalRPC(false, true, depth, layerWindow)
	if err != nil {
		return fmt.Errorf("rpc get bench: %w", err)
	}
	m.set("server.rpc_apply_ops_per_s", "1/s", apply.OpsPerSec)
	m.set("server.rpc_apply_p50_us", "us", apply.P50Micros)
	m.set("server.rpc_get_ops_per_s", "1/s", get.OpsPerSec)
	m.set("server.rpc_get_p50_us", "us", get.P50Micros)
	allocs := apply.AllocsPerOp*float64(apply.Ops) + get.AllocsPerOp*float64(get.Ops)
	m.set("server.rpc_allocs_per_op", "count", ratio(allocs, float64(apply.Ops+get.Ops)))
	return nil
}

// concurrently runs fn from depth goroutines until d has passed and
// returns the wall time and the number of calls made.
func concurrently(seed uint64, depth int, d time.Duration, fn func(g int, r *rng.RNG)) (time.Duration, int64) {
	var stop atomic.Bool
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(seed, 1<<42|uint64(g))
			var n int64
			for ; !stop.Load(); n++ {
				fn(g, r)
			}
			calls.Add(n)
		}(g)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return time.Since(start), calls.Load()
}

// preloadValues builds one value per key, as the serving preload does.
func preloadValues(spec servingSpec, ks *keyspace) []string {
	vals := make([]string, len(ks.names))
	buf := make([]byte, 0, spec.valueBytes)
	for i, k := range ks.names {
		vals[i], _ = makeValue(buf, k, uint64(i), spec.valueBytes)
	}
	return vals
}

// kvstoreLayer times the in-memory engine's Apply and Get at the
// workload's in-flight depth, as wall time per call.
func kvstoreLayer(cfg config, spec servingSpec, ks *keyspace, m metricSet) {
	st := kvstore.NewSynced()
	vals := preloadValues(spec, ks)
	for i, k := range ks.names {
		st.Apply(kvstore.Version{Key: k, Seq: 1, Value: vals[i]}, 0)
	}
	var seq atomic.Uint64
	seq.Store(1)
	el, n := concurrently(cfg.seed, spec.inFlight(), layerWindow/2, func(_ int, r *rng.RNG) {
		idx := ks.draw(r)
		s := seq.Add(1)
		st.Apply(kvstore.Version{Key: ks.names[idx], Seq: s, Value: vals[idx]}, float64(s))
	})
	m.set("kvstore.apply_ns", "ns", float64(el.Nanoseconds())/float64(max(n, 1)))
	el, n = concurrently(cfg.seed, spec.inFlight(), layerWindow/2, func(_ int, r *rng.RNG) {
		st.Get(ks.names[ks.draw(r)])
	})
	m.set("kvstore.get_ns", "ns", float64(el.Nanoseconds())/float64(max(n, 1)))
}

// storageLayer opens the durable engine under the workload's fsync policy
// (the engine default, "always", for the in-memory workload), preloads the
// workload's keys and values, and times Apply and Get at the workload's
// in-flight depth with the workload's read/write mix.
func storageLayer(cfg config, spec servingSpec, ks *keyspace, chk *checker, m metricSet) error {
	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("storage-%d", os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	// Preload without fsync, then reopen under the measured policy, so the
	// engine starts from recovered state as a restarted node does.
	eng, err := storage.Open(storage.Options{Dir: dir, Fsync: storage.FsyncNever})
	if err != nil {
		return err
	}
	vals := preloadValues(spec, ks)
	for i, k := range ks.names {
		eng.Apply(kvstore.Version{Key: k, Seq: 1, Value: vals[i]}, 0)
	}
	if err := eng.Close(); err != nil {
		return err
	}
	if eng, err = storage.Open(storage.Options{Dir: dir, Fsync: storage.FsyncAlways}); err != nil {
		return err
	}
	defer eng.Close()

	m0 := eng.Metrics()
	var seq atomic.Uint64
	seq.Store(1)
	depth := spec.inFlight()
	applyUs := make([][]float64, depth)
	getUs := make([][]float64, depth)
	concurrently(cfg.seed, depth, layerWindow, func(g int, r *rng.RNG) {
		idx := ks.draw(r)
		key := ks.names[idx]
		if spec.mix.Op(r) == workload.OpRead {
			t0 := time.Now()
			v, ok := eng.Get(key)
			getUs[g] = append(getUs[g], float64(time.Since(t0).Nanoseconds())/1e3)
			if !ok {
				chk.fail(fmt.Errorf("storage layer: preloaded key %q not found", key))
			} else if _, err := parseValue(key, v.Value); err != nil {
				chk.fail(fmt.Errorf("storage layer: %w", err))
			}
			return
		}
		s := seq.Add(1)
		t0 := time.Now()
		eng.Apply(kvstore.Version{Key: key, Seq: s, Value: vals[idx]}, float64(s))
		applyUs[g] = append(applyUs[g], float64(time.Since(t0).Nanoseconds())/1e3)
	})
	m1 := eng.Metrics()
	var apply, get []float64
	for g := range applyUs {
		apply = append(apply, applyUs[g]...)
		get = append(get, getUs[g]...)
	}
	m.set("storage.apply_p50_us", "us", quantile(apply, 0.50))
	m.set("storage.apply_p99_us", "us", quantile(apply, 0.99))
	m.set("storage.get_p50_us", "us", quantile(get, 0.50))
	m.set("storage.appends_per_sync", "ratio", ratio(float64(m1.WALAppends-m0.WALAppends), float64(m1.WALSyncs-m0.WALSyncs)))
	m.set("storage.flushes", "count", float64(m1.Flushes-m0.Flushes))
	m.set("storage.compactions", "count", float64(m1.Compactions-m0.Compactions))
	m.set("storage.sstables", "count", float64(m1.SSTables))
	return eng.Close()
}

// layerCalls is how many calls the single-goroutine layer loops time.
const layerCalls = 200000

// ringLayer times the preference-list lookup the coordinator and the
// client do for every key.
func ringLayer(cfg config, env *servingEnv, m metricSet) {
	mem := env.cluster.Membership()
	r := rng.NewStream(cfg.seed, 1<<40)
	idxs := make([]int, layerCalls)
	for i := range idxs {
		idxs[i] = env.ks.draw(r)
	}
	t0 := time.Now()
	for _, i := range idxs {
		mem.PreferenceList(env.ks.names[i], env.spec.n)
	}
	m.set("ring.preference_ns", "ns", float64(time.Since(t0).Nanoseconds())/layerCalls)
}

// workloadLayer times the harness's own input generation — the mix draw,
// the key draw and, for writes, the value — to show it is not the
// bottleneck.
func workloadLayer(cfg config, spec servingSpec, ks *keyspace, m metricSet) {
	r := rng.NewStream(cfg.seed, 1<<41)
	buf := make([]byte, 0, spec.valueBytes)
	t0 := time.Now()
	for i := 0; i < layerCalls; i++ {
		read := spec.mix.Op(r) == workload.OpRead
		idx := ks.draw(r)
		if !read {
			makeValue(buf, ks.names[idx], uint64(i), spec.valueBytes)
		}
	}
	m.set("workload.gen_ns", "ns", float64(time.Since(t0).Nanoseconds())/layerCalls)
	runtime.KeepAlive(buf)
}
