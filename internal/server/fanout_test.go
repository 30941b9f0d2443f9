package server

// Coverage for the coordinator's single fan-out path: injected WARS delays
// ride the pooled worker legs without parking workers, batched ops reach
// each replica as one frame whether or not a model is injected, sloppy
// batches walk spares per key inside their batch legs, and each batched
// key reports its own quorum time.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/dist"
	"pbs/internal/kvstore"
)

// countingPeer counts a coordinator's data-plane RPCs to one replica by
// kind, at the Peer seam.
type countingPeer struct {
	Peer
	apply, applyBatch, get, getBatch atomic.Int64
}

func (p *countingPeer) Apply(v kvstore.Version) (bool, uint64, error) {
	p.apply.Add(1)
	return p.Peer.Apply(v)
}

func (p *countingPeer) ApplyBatch(vers []kvstore.Version) ([]ApplyAck, error) {
	p.applyBatch.Add(1)
	return p.Peer.ApplyBatch(vers)
}

func (p *countingPeer) GetVersion(key string) (kvstore.Version, bool, error) {
	p.get.Add(1)
	return p.Peer.GetVersion(key)
}

func (p *countingPeer) GetVersionBatch(keys []string) ([]kvstore.Version, []bool, error) {
	p.getBatch.Add(1)
	return p.Peer.GetVersionBatch(keys)
}

// countPeers swaps n's peer clients for counting wrappers under the same
// ring; the returned restore reinstalls the original view (defer it after
// the cluster's Close, so it runs first and Close sees the real peers).
func countPeers(n *Node) (map[int]*countingPeer, func()) {
	orig := n.view()
	counted := &memView{m: orig.m, peers: make(map[int]Peer, len(orig.peers))}
	out := make(map[int]*countingPeer, len(orig.peers))
	for id, p := range orig.peers {
		cp := &countingPeer{Peer: p}
		counted.peers[id] = cp
		out[id] = cp
	}
	n.mem.Store(counted)
	return out, func() { n.mem.Store(orig) }
}

// pointModel injects exactly d ms on every WARS leg.
func pointModel(d float64) *dist.LatencyModel {
	p := dist.Point{V: d}
	return &dist.LatencyModel{Name: "point", W: p, A: p, R: p, S: p}
}

// splitByReplica returns up to k keys coordinated by node 0 whose
// preference list includes replica, and up to k whose list avoids it.
func splitByReplica(t *testing.T, n *Node, replica, k int, prefix string) (with, without []string) {
	t.Helper()
	v := n.view()
	for i := 0; len(with) < k || len(without) < k; i++ {
		if i > 100000 {
			t.Fatalf("could not split %d keys by replica %d", k, replica)
		}
		key := fmt.Sprintf("%s%d", prefix, i)
		if v.m.Coordinator(key) != n.id {
			continue
		}
		if slices.Contains(n.prefs(v, key), replica) {
			if len(with) < k {
				with = append(with, key)
			}
		} else if len(without) < k {
			without = append(without, key)
		}
	}
	return with, without
}

func putOps(keys []string, value string) []BatchPutOp {
	ops := make([]BatchPutOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchPutOp{Key: k, Value: value + k}
	}
	return ops
}

// TestInjectedBatchLegsOneFramePerPeer: with a WARS model injected, an
// MPut and an MGet of k keys reach each replica as one batch frame each,
// not as k single-key RPCs — the batch legs the model is validated
// against are the ones that serve traffic.
func TestInjectedBatchLegsOneFramePerPeer(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 3, W: 3, Model: pointModel(1), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	keys := keysWithPrimary(t, c, 0, 16, "frames-")
	peers, restore := countPeers(n)
	defer restore()

	ops := putOps(keys, "v-")
	for i, out := range n.coordinateMPut(ops) {
		if out.oe != nil {
			t.Fatalf("mput key %q: %s", keys[i], out.oe.msg)
		}
	}
	for i, out := range n.coordinateMGet(keys) {
		if out.oe != nil || !out.gr.Found || out.gr.Value != ops[i].Value {
			t.Fatalf("mget key %q: %+v err=%v", keys[i], out.gr, out.oe)
		}
	}
	// R = W = N: every leg has answered before the calls return.
	for id, p := range peers {
		if p.applyBatch.Load() != 1 || p.apply.Load() != 0 || p.getBatch.Load() != 1 || p.get.Load() != 0 {
			t.Errorf("replica %d saw ApplyBatch=%d Apply=%d GetVersionBatch=%d GetVersion=%d, want one batch frame each and no single-key RPCs",
				id, p.applyBatch.Load(), p.apply.Load(), p.getBatch.Load(), p.get.Load())
		}
	}
}

// TestSloppyBatchLegsWalkSpares: with one preference replica crashed, a
// sloppy MPut and MGet still commit through batch legs — each key of the
// down replica's leg walks its own spares — and every key reads back.
func TestSloppyBatchLegsWalkSpares(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 2, W: 2, Seed: 21, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const down = 2
	n := c.Nodes[0]
	keys, _ := splitByReplica(t, n, down, 8, "sloppy-batch-")
	peers, restore := countPeers(n)
	defer restore()

	c.Faults().Crash(down)
	base := c.Stats()
	ops := putOps(keys, "v-")
	for i, out := range n.coordinateMPut(ops) {
		if out.oe != nil {
			t.Fatalf("sloppy mput key %q: %s", keys[i], out.oe.msg)
		}
	}
	for i, out := range n.coordinateMGet(keys) {
		if out.oe != nil || !out.gr.Found || out.gr.Value != ops[i].Value {
			t.Fatalf("sloppy mget key %q: %+v err=%v", keys[i], out.gr, out.oe)
		}
	}
	// Straggler legs (the spare walks beyond the quorum) may still be
	// landing: wait for every key's down-replica leg to reach a spare.
	var spareReads int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		w := s.SpareWrites - base.SpareWrites
		spareReads = s.SpareReads - base.SpareReads
		if w >= int64(len(keys)) && spareReads >= int64(len(keys)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spare writes %d, spare reads %d after a sloppy batch of %d keys with a replica down",
				w, spareReads, len(keys))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The live preference replicas took batch frames; the only single-key
	// RPCs are the spare walks' (ApplyHinted is not counted as Apply).
	var singleReads int64
	for id, p := range peers {
		singleReads += p.get.Load()
		if p.apply.Load() != 0 {
			t.Errorf("replica %d saw %d single-key Apply RPCs: the batch decomposed", id, p.apply.Load())
		}
		if id == down && (p.applyBatch.Load() != 0 || p.getBatch.Load() != 0) {
			t.Errorf("crashed replica %d was sent batch frames", id)
		}
	}
	if singleReads != spareReads {
		t.Errorf("%d single-key GetVersion RPCs for %d spare reads: the batch decomposed", singleReads, spareReads)
	}
}

// TestInjectedDelaysNeverQueue guards the timer-based realization of
// injected delays: with d ms on every leg, 3 × legWorkersPerPeer
// concurrent writes to one replica each cost about 2d. A worker that slept
// the delays itself would queue the later legs behind earlier ones and
// push them to 4d or more.
func TestInjectedDelaysNeverQueue(t *testing.T) {
	const d = 20.0
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1, Model: pointModel(d), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]

	writes := 3 * legWorkersPerPeer
	coord := make([]float64, writes)
	errs := make([]*opError, writes)
	var wg sync.WaitGroup
	for i := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, oe := n.routeWriteOp(fmt.Sprintf("queue-%d", i), "v", false, 0)
			coord[i], errs[i] = pr.CoordMs, oe
		}()
	}
	wg.Wait()
	for i := range writes {
		if errs[i] != nil {
			t.Fatalf("write %d: %s", i, errs[i].msg)
		}
		if coord[i] < 2*d || coord[i] >= 3*d {
			t.Errorf("write %d of %d concurrent: CoordMs %.2f, want in [%.0f, %.0f) ms",
				i, writes, coord[i], 2*d, 3*d)
		}
	}
}

// TestBatchCoordMsPerKey: a batched key reports its own quorum time, not
// the time the coordinator got around to harvesting it. Keys whose
// preference list avoids a delayed replica answer fast even when they sit
// behind slow keys in the batch.
func TestBatchCoordMsPerKey(t *testing.T) {
	c, err := StartLocal(5, Params{N: 3, R: 3, W: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		victim  = 4
		delayMs = 300
	)
	n := c.Nodes[0]
	slow, fast := splitByReplica(t, n, victim, 4, "coordms-")
	keys := append(append([]string(nil), slow...), fast...) // slow keys first
	c.Faults().SetDelay(victim, delayMs)

	check := func(op string, i int, coordMs float64) {
		t.Helper()
		if i < len(slow) {
			if coordMs < delayMs {
				t.Errorf("%s slow key %q: CoordMs %.2f beat the %d ms delay on its replica", op, keys[i], coordMs, delayMs)
			}
		} else if coordMs >= delayMs {
			t.Errorf("%s fast key %q: CoordMs %.2f, want below the %d ms delay its preference list avoids", op, keys[i], coordMs, delayMs)
		}
	}
	for i, out := range n.coordinateMPut(putOps(keys, "v-")) {
		if out.oe != nil {
			t.Fatalf("mput key %q: %s", keys[i], out.oe.msg)
		}
		check("mput", i, out.pr.CoordMs)
	}
	for i, out := range n.coordinateMGet(keys) {
		if out.oe != nil || !out.gr.Found {
			t.Fatalf("mget key %q: %+v err=%v", keys[i], out.gr, out.oe)
		}
		check("mget", i, out.gr.CoordMs)
	}
}
