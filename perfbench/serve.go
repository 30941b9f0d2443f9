package main

// The serving workloads: a 3-node server.StartLocal cluster in this
// process, driven through one client.DialBinary routing client from a few
// sessions, each keeping a fixed number of calls in flight (a closed loop).

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/client"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/storage"
	"pbs/internal/workload"
)

// servingSpec is one serving workload's shape.
type servingSpec struct {
	name       string
	keys       int
	zipf       float64 // Zipf exponent of key popularity; 0 draws keys uniformly
	valueBytes int
	mix        workload.Mix
	n, r, w    int
	durable    bool // DataDir on disk with Fsync "always"; otherwise in memory
	batch      int  // keys per call: 1 issues Get/Put, more issue MGet/MPut
	sessions   int
	pipeline   int // calls in flight per session
}

func (s servingSpec) inFlight() int { return s.sessions * s.pipeline }

func (s servingSpec) fsync() string {
	if s.durable {
		return storage.FsyncAlways
	}
	return "none"
}

func readMostly(small bool) servingSpec {
	s := servingSpec{
		name: "kv-read-mostly", keys: 10000, zipf: 0.99, valueBytes: 64,
		mix: workload.YammerMix(), n: 3, r: 1, w: 1, batch: 1, sessions: 2, pipeline: 16,
	}
	if small {
		s.keys = 1000
	}
	return s
}

func durableBatch(small bool) servingSpec {
	s := servingSpec{
		name: "kv-durable-batch", keys: 100000, valueBytes: 128,
		mix: workload.LinkedInMix(), n: 3, r: 2, w: 2, durable: true, batch: 16, sessions: 2, pipeline: 4,
	}
	if small {
		s.keys = 2000
	}
	return s
}

const (
	// clusters is how many fresh clusters a serving run boots, preloads
	// and measures, each for an equal share of the window; setup_s is the
	// median of their set-up times.
	clusters = 5
	// subWindows splits each cluster's measured window; rate and latency
	// metrics are medians over the sub-windows of every cluster.
	subWindows = 4
	// warmup runs the load untimed first, so pools, caches and the WAL's
	// adaptive commit window settle before measuring.
	warmup = time.Second
	// preloadBatch is the MPut size of the preload, and preloadInFlight
	// how many preload calls are in flight at once.
	preloadBatch    = 64
	preloadInFlight = 32
	// auditWait bounds how long the replica audit waits for in-flight
	// replication legs to land.
	auditWait = 10 * time.Second
	// maxSpans caps the client calls whose spans a traced run writes out.
	maxSpans = 50000
)

// keyspace holds the workload's key names and draws key indexes.
type keyspace struct {
	names []string
	zipf  *workload.ZipfKeys
	index map[string]int
}

func newKeyspace(spec servingSpec) *keyspace {
	ks := &keyspace{names: make([]string, spec.keys)}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("k%d", i)
	}
	if spec.zipf > 0 {
		// workload.ZipfKeys names keys "k<rank>" like the list above;
		// the index map turns its draw back into a key index.
		ks.zipf = workload.NewZipfKeys(spec.keys, spec.zipf, "k")
		ks.index = make(map[string]int, spec.keys)
		for i, n := range ks.names {
			ks.index[n] = i
		}
	}
	return ks
}

func (ks *keyspace) draw(r *rng.RNG) int {
	if ks.zipf != nil {
		return ks.index[ks.zipf.Key(r)]
	}
	return r.Intn(len(ks.names))
}

// servingEnv is one booted and preloaded cluster.
type servingEnv struct {
	spec    servingSpec
	ks      *keyspace
	chk     *checker
	cluster *server.Cluster
	client  *client.Client
	dataDir string
	attempt int // which of the run's set-ups this is
	passes  int
	sess    []*client.Session
}

func (e *servingEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
}

// discard closes a set-up that failed and removes its data.
func (e *servingEnv) discard() {
	e.close()
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// setupServing boots the cluster, dials the client and preloads every key.
func setupServing(cfg config, spec servingSpec, ks *keyspace, attempt int) (*servingEnv, error) {
	e := &servingEnv{spec: spec, ks: ks, attempt: attempt, chk: newChecker(ks.names, spec.r+spec.w > spec.n)}
	p := server.Params{N: spec.n, R: spec.r, W: spec.w, Seed: cfg.seed}
	if spec.durable {
		e.dataDir = filepath.Join(cfg.out, "tmp", fmt.Sprintf("%s-%d-%d", spec.name, os.Getpid(), attempt))
		os.RemoveAll(e.dataDir)
		p.DataDir, p.Fsync = e.dataDir, storage.FsyncAlways
	}
	var err error
	if e.cluster, err = server.StartLocal(3, p); err != nil {
		e.discard()
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	if e.client, err = client.DialBinary(e.cluster.HTTPAddrs[0]); err != nil {
		e.discard()
		return nil, fmt.Errorf("dial: %w", err)
	}
	for i := 0; i < spec.sessions; i++ {
		e.sess = append(e.sess, e.client.NewSession(false))
	}
	if err := e.preload(); err != nil {
		e.discard()
		return nil, err
	}
	return e, nil
}

// preload writes every key once with pipelined MPuts.
func (e *servingEnv) preload() error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for s := 0; s < preloadInFlight; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, e.spec.valueBytes)
			ops := make([]client.PutOp, 0, preloadBatch)
			sums := make([]uint32, 0, preloadBatch)
			for {
				lo := int(next.Add(preloadBatch)) - preloadBatch
				if lo >= len(e.ks.names) {
					return
				}
				hi := min(lo+preloadBatch, len(e.ks.names))
				ops, sums = ops[:0], sums[:0]
				for i := lo; i < hi; i++ {
					v, sum := makeValue(buf, e.ks.names[i], uint64(i), e.spec.valueBytes)
					ops = append(ops, client.PutOp{Key: e.ks.names[i], Value: v})
					sums = append(sums, sum)
				}
				outs, err := e.client.MPut(ops)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				for j, o := range outs {
					if o.Err != nil {
						e.chk.fail(fmt.Errorf("preload of %q: %w", ops[j].Key, o.Err))
						continue
					}
					e.chk.ack(lo+j, o.Seq, sums[j])
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("preload: %w", firstErr)
	}
	return nil
}

// Call kinds.
const (
	kindGet = iota
	kindPut
	nKinds
)

// span is one traced client call. The coordinator's child span has only a
// duration: the largest CoordMs among the call's keys.
type span struct {
	kind       uint8
	keys       uint16
	failed     bool
	start, end int64 // ns since the pass began
	coordNs    int64
	trace      uint64
}

// slotRec is what one in-flight slot records during a pass.
type slotRec struct {
	lat      [subWindows][nKinds][]float32 // call latency in ms; +Inf when failed
	keysOK   [subWindows]int64
	attempts int64 // keys attempted over the whole pass
	opErrs   int64 // keys whose call returned an error
	spans    []span
	coordUs  [nKinds][]float64 // per-key CoordMs, in µs (traced passes)
}

// passResult is one pass's measurements.
type passResult struct {
	winDur         [subWindows]float64 // seconds
	slots          []*slotRec
	mallocs        uint64
	rtBefore       runtimeSample
	rtAfter        runtimeSample
	stats0, stats1 server.StatsResponse
}

// pass runs the closed loop: an untimed warm-up (when warm is set), then
// the measured window in subWindows equal parts. Calls that complete
// outside the measured window are checked and counted as attempts but not
// measured.
func (e *servingEnv) pass(cfg config, window time.Duration, warm, traced bool) *passResult {
	e.passes++
	pr := &passResult{slots: make([]*slotRec, e.spec.inFlight())}
	var phase atomic.Int32
	phase.Store(-1)
	var stop atomic.Bool
	origin := time.Now()
	var wg sync.WaitGroup
	for s := range pr.slots {
		pr.slots[s] = &slotRec{}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			e.runSlot(cfg, slot, pr.slots[slot], &phase, &stop, origin, traced)
		}(s)
	}
	if warm {
		time.Sleep(warmup)
	}
	pr.rtBefore = sampleRuntime()
	pr.stats0 = e.cluster.Stats()
	m0 := mallocs()
	t0 := time.Now()
	last := t0
	for w := 0; w < subWindows; w++ {
		phase.Store(int32(w))
		time.Sleep(time.Until(t0.Add(time.Duration(w+1) * window / subWindows)))
		now := time.Now()
		pr.winDur[w] = now.Sub(last).Seconds()
		last = now
	}
	phase.Store(subWindows)
	pr.mallocs = mallocs() - m0
	pr.stats1 = e.cluster.Stats()
	pr.rtAfter = sampleRuntime()
	stop.Store(true)
	wg.Wait()
	return pr
}

// runSlot is one in-flight slot of the closed loop.
func (e *servingEnv) runSlot(cfg config, slot int, rec *slotRec, phase *atomic.Int32, stop *atomic.Bool, origin time.Time, traced bool) {
	spec := e.spec
	r := rng.NewStream(cfg.seed, uint64(e.attempt)<<24|uint64(e.passes)<<16|uint64(slot))
	sess := e.sess[slot/spec.pipeline] // slots spread evenly over the sessions
	serial := uint64(e.passes)<<48 | uint64(slot)<<36
	buf := make([]byte, 0, spec.valueBytes)
	idxs := make([]int, spec.batch)
	keys := make([]string, spec.batch)
	bases := make([]uint64, spec.batch)
	sums := make([]uint32, spec.batch)
	puts := make([]client.PutOp, spec.batch)
	if traced {
		rec.spans = make([]span, 0, 1<<14)
	}
	var traceID uint64
	for !stop.Load() {
		kind := kindPut
		if spec.mix.Op(r) == workload.OpRead {
			kind = kindGet
		}
		for j := range idxs {
			idxs[j] = e.ks.draw(r)
			keys[j] = e.ks.names[idxs[j]]
		}
		ok, errs := 0, 0
		var coordMax float64
		var start, end time.Time // around the client call only, not the checks
		switch {
		case kind == kindGet && spec.batch == 1:
			bases[0] = e.chk.baseline(idxs[0])
			start = time.Now()
			res, _, err := sess.Get(keys[0])
			end = time.Now()
			if err != nil {
				errs++
			} else {
				coordMax = res.CoordMs
				if e.chk.read(idxs[0], bases[0], res.Found, res.Seq, res.Value) {
					ok++
				}
				if traced {
					rec.coordUs[kindGet] = append(rec.coordUs[kindGet], res.CoordMs*1e3)
				}
			}
		case kind == kindGet:
			for j, idx := range idxs {
				bases[j] = e.chk.baseline(idx)
			}
			start = time.Now()
			outs, _, err := sess.MGet(keys)
			end = time.Now()
			if err != nil {
				errs += len(keys)
				break
			}
			for j, o := range outs {
				if o.Err != nil {
					errs++
					continue
				}
				coordMax = math.Max(coordMax, o.CoordMs)
				if e.chk.read(idxs[j], bases[j], o.Found, o.Seq, o.Value) {
					ok++
				}
				if traced {
					rec.coordUs[kindGet] = append(rec.coordUs[kindGet], o.CoordMs*1e3)
				}
			}
		case spec.batch == 1:
			serial++
			val, sum := makeValue(buf, keys[0], serial, spec.valueBytes)
			start = time.Now()
			res, err := e.client.Put(keys[0], val)
			end = time.Now()
			if err != nil {
				errs++
				break
			}
			e.chk.ack(idxs[0], res.Seq, sum)
			coordMax = res.CoordMs
			ok++
			if traced {
				rec.coordUs[kindPut] = append(rec.coordUs[kindPut], res.CoordMs*1e3)
			}
		default:
			for j := range puts {
				serial++
				puts[j].Value, sums[j] = makeValue(buf, keys[j], serial, spec.valueBytes)
				puts[j].Key = keys[j]
			}
			start = time.Now()
			outs, err := sess.MPut(puts)
			end = time.Now()
			if err != nil {
				errs += len(puts)
				break
			}
			for j, o := range outs {
				if o.Err != nil {
					errs++
					continue
				}
				e.chk.ack(idxs[j], o.Seq, sums[j])
				coordMax = math.Max(coordMax, o.CoordMs)
				ok++
				if traced {
					rec.coordUs[kindPut] = append(rec.coordUs[kindPut], o.CoordMs*1e3)
				}
			}
		}
		rec.attempts += int64(len(keys))
		rec.opErrs += int64(errs)
		ms := float64(end.Sub(start)) / float64(time.Millisecond)
		failed := ok < len(keys)
		if failed {
			ms = math.Inf(1)
		}
		if w := phase.Load(); w >= 0 && w < subWindows {
			rec.lat[w][kind] = append(rec.lat[w][kind], float32(ms))
			rec.keysOK[w] += int64(ok)
		}
		if traced {
			traceID++
			rec.spans = append(rec.spans, span{
				kind: uint8(kind), keys: uint16(len(keys)), failed: failed,
				start: int64(start.Sub(origin)), end: int64(end.Sub(origin)),
				coordNs: int64(coordMax * 1e6), trace: uint64(slot)<<40 | traceID,
			})
		}
	}
}

// audit checks, once replication has had time to land, that every node on
// each key's preference list holds at least the newest acknowledged seq.
// It returns the number of keys that fail.
func (e *servingEnv) audit() int {
	want := e.chk.lastAcked()
	mem := e.cluster.Membership()
	pending := make([]int, 0, len(want))
	for i := range want {
		pending = append(pending, i)
	}
	deadline := time.Now().Add(auditWait)
	for {
		still := pending[:0]
		for _, i := range pending {
			for _, node := range mem.PreferenceList(e.ks.names[i], e.spec.n) {
				if e.cluster.ReplicaSeq(node, e.ks.names[i]) < want[i] {
					still = append(still, i)
					break
				}
			}
		}
		pending = still
		if len(pending) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, i := range pending {
		e.chk.fail(fmt.Errorf("replica audit: a replica of %q is behind acked seq %d", e.ks.names[i], want[i]))
	}
	return len(pending)
}

// e2e holds the end-to-end values of one or more passes, and the
// per-sub-window samples they are medians of.
type e2e struct {
	opsPerS          float64
	p50, p90         float64
	kindP50, kindP99 [nKinds]float64
	allocsPerOp      float64

	rates, p50s, p90s []float64
}

// summarize pools the measured sub-windows of passes: rates and
// percentiles are medians over every sub-window, allocations a ratio of
// totals.
func summarize(passes []*passResult) e2e {
	var out e2e
	var rates, p50s, p90s []float64
	var kp50, kp99 [nKinds][]float64
	var keysOK int64
	var allocs uint64
	for _, pr := range passes {
		allocs += pr.mallocs
		for w := 0; w < subWindows; w++ {
			var keys int64
			var all []float64
			var byKind [nKinds][]float64
			for _, s := range pr.slots {
				keys += s.keysOK[w]
				for k := 0; k < nKinds; k++ {
					for _, ms := range s.lat[w][k] {
						all = append(all, float64(ms))
						byKind[k] = append(byKind[k], float64(ms))
					}
				}
			}
			keysOK += keys
			rates = append(rates, float64(keys)/pr.winDur[w])
			p50s = append(p50s, quantile(all, 0.50))
			p90s = append(p90s, quantile(all, 0.90))
			for k := 0; k < nKinds; k++ {
				if len(byKind[k]) > 0 {
					kp50[k] = append(kp50[k], quantile(byKind[k], 0.50))
					kp99[k] = append(kp99[k], quantile(byKind[k], 0.99))
				}
			}
		}
	}
	out.rates, out.p50s, out.p90s = rates, p50s, p90s
	out.opsPerS, out.p50, out.p90 = median(rates), median(p50s), median(p90s)
	for k := 0; k < nKinds; k++ {
		out.kindP50[k], out.kindP99[k] = median(kp50[k]), median(kp99[k])
	}
	if keysOK > 0 {
		out.allocsPerOp = float64(allocs) / float64(keysOK)
	}
	return out
}

func (pr *passResult) counts() (attempts, opErrs int64) {
	for _, s := range pr.slots {
		attempts += s.attempts
		opErrs += s.opErrs
	}
	return attempts, opErrs
}

// runServing is one run of a serving workload. The run boots and preloads
// a fresh cluster `clusters` times and measures each for an equal share of
// the window: every cluster starts from the same state, so a background
// flush or compaction that happens to land in one cluster's window moves a
// fifth of the samples, not the whole run.
func runServing(cfg config, spec servingSpec) (*outcome, error) {
	ks := newKeyspace(spec)
	oc := &outcome{fsync: spec.fsync(), metrics: metricSet{}}
	m := oc.metrics
	// Data directories are removed only when the run ends: deleting tens of
	// megabytes while the next cluster fsyncs its WAL slows those fsyncs.
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	var setupS []float64
	var base []*passResult
	window := cfg.window / clusters
	for i := 0; i < clusters; i++ {
		t0 := time.Now()
		env, err := setupServing(cfg, spec, ks, i)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d took %.3fs\n", i, setupS[i])
		if env.dataDir != "" {
			dirs = append(dirs, env.dataDir)
		}
		err = env.measure(cfg, window, i == clusters-1, &base, oc)
		env.close()
		if err != nil {
			return nil, err
		}
		// The closed cluster's memory goes back to the OS before the next
		// one boots, so peak_rss_mb reflects one cluster.
		debug.FreeOSMemory()
	}
	sum := summarize(base)
	fmt.Fprintf(os.Stderr, "perfbench: sub-window ops/s %.0f\nperfbench: sub-window p50 ms %.3f\nperfbench: sub-window p90 ms %.3f\n",
		sum.rates, sum.p50s, sum.p90s)
	if !cfg.trace {
		m.set("ops_per_s", "1/s", sum.opsPerS)
		m.set("op_p50_ms", "ms", sum.p50)
		m.set("op_p90_ms", "ms", sum.p90)
		m.set("allocs_per_op", "count", sum.allocsPerOp)
		m.set("peak_rss_mb", "MB", peakRSSMB())
		m.set("setup_s", "s", median(setupS))
		return oc, nil
	}
	return oc, finishLayers(cfg, oc)
}

// measure runs one cluster's untimed warm-up and measured window (and, on
// the last cluster of a traced run, the traced window), audits the
// replicas, then on that last traced cluster calls the inner layers. It
// adds the passes' attempts and every failure to oc.
func (e *servingEnv) measure(cfg config, window time.Duration, last bool, base *[]*passResult, oc *outcome) error {
	pr := e.pass(cfg, window, true, false)
	*base = append(*base, pr)
	passes := []*passResult{pr}
	var traced *passResult
	if cfg.trace && last {
		var err error
		if traced, err = e.tracedPass(cfg, window); err != nil {
			return err
		}
		passes = append(passes, traced)
	}
	e.audit()
	if traced != nil {
		if err := servingLayers(cfg, e, *base, traced, oc.metrics); err != nil {
			return err
		}
	}
	for _, p := range passes {
		a, errs := p.counts()
		oc.attempted += a
		oc.failed += errs
	}
	oc.failed += e.chk.failures.Load()
	e.chk.mu.Lock()
	oc.failures = append(oc.failures, e.chk.examples...)
	e.chk.mu.Unlock()
	return nil
}

// tracedPass repeats the window with spans recorded and the CPU profiler
// on, then writes the spans out.
func (e *servingEnv) tracedPass(cfg config, window time.Duration) (*passResult, error) {
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
	pr := e.pass(cfg, window, false, true)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return pr, writeSpans(filepath.Join(dir, "spans.jsonl"), pr.slots)
}

var kindNames = [nKinds]string{"get", "put"}

// writeSpans writes up to maxSpans client calls, each with its
// coordinator child span, as JSON lines.
func writeSpans(path string, slots []*slotRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n := 0
	for _, s := range slots {
		for _, sp := range s.spans {
			if n == maxSpans {
				break
			}
			n++
			fmt.Fprintf(f, `{"trace":%d,"span":1,"name":"client.%s","start_ns":%d,"end_ns":%d,"keys":%d,"failed":%v}`+"\n",
				sp.trace, kindNames[sp.kind], sp.start, sp.end, sp.keys, sp.failed)
			fmt.Fprintf(f, `{"trace":%d,"span":2,"parent":1,"name":"server.coord","dur_ns":%d}`+"\n", sp.trace, sp.coordNs)
		}
	}
	return f.Close()
}
