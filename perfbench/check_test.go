package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{64, 128} {
		v, sum := makeValue(nil, "k123", 0xfeed, size)
		if len(v) != size {
			t.Fatalf("size %d: value is %d bytes", size, len(v))
		}
		got, err := parseValue("k123", v)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got != sum {
			t.Fatalf("size %d: checksum %08x, want %08x", size, got, sum)
		}
	}
}

// newTestChecker returns a checker over keys "a" and "b" where "a" has an
// acknowledged write at seq 5.
func newTestChecker(t *testing.T, strict bool) (*checker, string) {
	t.Helper()
	c := newChecker([]string{"a", "b"}, strict)
	v, sum := makeValue(nil, "a", 1, 64)
	c.ack(0, 5, sum)
	return c, v
}

func TestCheckerPassesGoodRead(t *testing.T) {
	c, v := newTestChecker(t, true)
	if !c.read(0, c.baseline(0), true, 5, v) {
		t.Fatalf("good read failed: %v", c.examples)
	}
	if n := c.failures.Load(); n != 0 {
		t.Fatalf("failures = %d, want 0", n)
	}
}

func TestCheckerCountsWrongKey(t *testing.T) {
	c, _ := newTestChecker(t, true)
	other, _ := makeValue(nil, "b", 1, 64)
	if c.read(0, c.baseline(0), true, 5, other) {
		t.Fatal("a value carrying key b passed as key a")
	}
	if n := c.failures.Load(); n != 1 || !strings.Contains(c.examples[0], "another key") {
		t.Fatalf("failures = %d %v, want 1 wrong-key failure", n, c.examples)
	}
}

func TestCheckerCountsBadChecksum(t *testing.T) {
	c, v := newTestChecker(t, true)
	torn := []byte(v)
	torn[len("a:")+3] ^= 1 // flip a bit inside the serial
	if c.read(0, c.baseline(0), true, 5, string(torn)) {
		t.Fatal("a value with a flipped bit passed")
	}
	if n := c.failures.Load(); n != 1 || !strings.Contains(c.examples[0], "checksum") {
		t.Fatalf("failures = %d %v, want 1 checksum failure", n, c.examples)
	}
}

func TestCheckerCountsOtherWritesValueAtAckedSeq(t *testing.T) {
	c, _ := newTestChecker(t, true)
	other, _ := makeValue(nil, "a", 2, 64) // well formed, but not the write acked at seq 5
	if c.read(0, c.baseline(0), true, 5, other) {
		t.Fatal("a read at the acked seq returned another write's value and passed")
	}
	if n := c.failures.Load(); n != 1 {
		t.Fatalf("failures = %d, want 1", n)
	}
}

func TestCheckerCountsStaleStrictRead(t *testing.T) {
	c, _ := newTestChecker(t, true)
	old, _ := makeValue(nil, "a", 0, 64)
	if c.read(0, c.baseline(0), true, 3, old) {
		t.Fatal("a strict-quorum read older than the acked seq passed")
	}
	if n := c.failures.Load(); n != 1 || !strings.Contains(c.examples[0], "strict-quorum") {
		t.Fatalf("failures = %d %v, want 1 stale-read failure", n, c.examples)
	}
	if c.staleReads.Load() != 1 || c.meanKBehind() != 2 {
		t.Fatalf("stale reads %d, mean k behind %v; want 1 and 2", c.staleReads.Load(), c.meanKBehind())
	}
}

func TestCheckerPartialQuorumStaleReadIsNotAFailure(t *testing.T) {
	c, _ := newTestChecker(t, false)
	old, _ := makeValue(nil, "a", 0, 64)
	if !c.read(0, c.baseline(0), true, 4, old) {
		t.Fatalf("a stale read under a partial quorum failed: %v", c.examples)
	}
	if c.failures.Load() != 0 || c.staleFrac() != 1 {
		t.Fatalf("failures %d, stale frac %v; want 0 and 1", c.failures.Load(), c.staleFrac())
	}
}

func TestCheckerCountsMissingKey(t *testing.T) {
	c, _ := newTestChecker(t, false)
	if c.read(1, 0, false, 0, "") {
		t.Fatal("a read that found nothing passed")
	}
	if c.failures.Load() != 1 {
		t.Fatalf("failures = %d, want 1", c.failures.Load())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestMetricSetEncodesNoNaNOrInf(t *testing.T) {
	m := metricSet{}
	m.set("empty", "ms", math.NaN())
	m.set("failed", "ms", math.Inf(1))
	if m["empty"].Value != 0 || m["failed"].Value != math.MaxFloat64 {
		t.Fatalf("got %v and %v, want 0 and MaxFloat64", m["empty"].Value, m["failed"].Value)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	}
}
