package main

// Value format and the correctness checker that runs inside every serving
// run. Every value the bench writes embeds its own key and a CRC32, so a
// read that returns bytes belonging to another key (pooled-buffer aliasing,
// batch reassembly out of order) or torn bytes is caught on the spot. The
// checker also keeps the newest acknowledged seq of every key — the same
// ground truth client.Monitor uses — to count stale reads.

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"sync/atomic"

	"pbs/internal/server"
)

// makeValue builds a value of exactly size bytes:
//
//	<key>:<serial as 16 hex digits>:<filler>:<crc32 of everything before the last colon, 8 hex digits>
//
// The filler is derived from the serial, so two writes of one key differ in
// every field but the key.
func makeValue(buf []byte, key string, serial uint64, size int) (string, uint32) {
	b := buf[:0]
	b = append(b, key...)
	b = append(b, ':')
	b = strconv.AppendUint(append(b, "0000000000000000"[:16-hexLen(serial)]...), serial, 16)
	b = append(b, ':')
	for i := 0; len(b) < size-9; i++ {
		b = append(b, 'a'+byte((serial+uint64(i))%26))
	}
	sum := crc32.ChecksumIEEE(b)
	b = append(b, ':')
	b = hex.AppendEncode(b, []byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	return string(b), sum
}

func hexLen(v uint64) int {
	n := 1
	for v >= 16 {
		v >>= 4
		n++
	}
	return n
}

// minValueBytes is the smallest size makeValue can fill for a key.
func minValueBytes(key string) int { return len(key) + 1 + 16 + 1 + 9 }

// parseValue verifies a value read back for key and returns its checksum.
func parseValue(key, v string) (uint32, error) {
	if len(v) < minValueBytes(key) {
		return 0, fmt.Errorf("value for %q is %d bytes, too short", key, len(v))
	}
	if v[:len(key)] != key || v[len(key)] != ':' {
		return 0, fmt.Errorf("value for %q carries another key: %.24q", key, v)
	}
	body, tail := v[:len(v)-9], v[len(v)-9:]
	if tail[0] != ':' {
		return 0, fmt.Errorf("value for %q has no checksum field", key)
	}
	raw, err := hex.DecodeString(tail[1:])
	if err != nil {
		return 0, fmt.Errorf("value for %q has a malformed checksum", key)
	}
	want := uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3])
	if got := crc32.ChecksumIEEE([]byte(body)); got != want {
		return 0, fmt.Errorf("value for %q fails its checksum (%08x != %08x)", key, got, want)
	}
	return want, nil
}

// checker tracks, per key index, the newest acknowledged write, and counts
// every correctness failure it sees. Safe for concurrent use.
type checker struct {
	strict bool // R+W > N: any stale read is a failure
	keys   []string

	locks [256]sync.Mutex
	acked []ackedWrite

	failures   atomic.Int64
	reads      atomic.Int64
	staleReads atomic.Int64
	kBehindSum atomic.Int64

	mu       sync.Mutex
	examples []string // first few failure descriptions
}

type ackedWrite struct {
	seq uint64
	sum uint32
}

func newChecker(keys []string, strict bool) *checker {
	return &checker{strict: strict, keys: keys, acked: make([]ackedWrite, len(keys))}
}

// fail records one correctness failure.
func (c *checker) fail(err error) {
	c.failures.Add(1)
	c.mu.Lock()
	if len(c.examples) < 8 {
		c.examples = append(c.examples, err.Error())
	}
	c.mu.Unlock()
}

// baseline returns the newest acknowledged seq of key idx; a read issued
// after this call must not return anything older under a strict quorum.
func (c *checker) baseline(idx int) uint64 {
	l := &c.locks[idx&255]
	l.Lock()
	s := c.acked[idx].seq
	l.Unlock()
	return s
}

// acked records an acknowledged write of key idx at seq with checksum sum.
func (c *checker) ack(idx int, seq uint64, sum uint32) {
	l := &c.locks[idx&255]
	l.Lock()
	if seq > c.acked[idx].seq {
		c.acked[idx] = ackedWrite{seq: seq, sum: sum}
	}
	l.Unlock()
}

// read checks one successful read of key idx that returned (found, seq,
// value), issued after baseline was taken. It reports whether the read
// passed.
func (c *checker) read(idx int, base uint64, found bool, seq uint64, value string) bool {
	key := c.keys[idx]
	c.reads.Add(1)
	if !found {
		c.fail(fmt.Errorf("read of preloaded key %q found nothing", key))
		return false
	}
	sum, err := parseValue(key, value)
	if err != nil {
		c.fail(err)
		return false
	}
	l := &c.locks[idx&255]
	l.Lock()
	cur := c.acked[idx]
	l.Unlock()
	if seq == cur.seq && sum != cur.sum {
		c.fail(fmt.Errorf("read of %q at seq %d returned another write's value", key, seq))
		return false
	}
	if seq < base {
		c.staleReads.Add(1)
		k := int64(server.SeqCounter(base)) - int64(server.SeqCounter(seq))
		if k < 1 {
			k = 1
		}
		c.kBehindSum.Add(k)
		if c.strict {
			c.fail(fmt.Errorf("strict-quorum read of %q returned seq %d, older than acked seq %d", key, seq, base))
			return false
		}
	}
	return true
}

// lastAcked returns the newest acknowledged seq of every key.
func (c *checker) lastAcked() []uint64 {
	out := make([]uint64, len(c.acked))
	for i := range out {
		out[i] = c.baseline(i)
	}
	return out
}

// staleFrac and meanKBehind follow client.Monitor's definitions: the share
// of reads older than their baseline, and versions behind averaged over
// every read (fresh reads count as 0).
func (c *checker) staleFrac() float64 {
	if r := c.reads.Load(); r > 0 {
		return float64(c.staleReads.Load()) / float64(r)
	}
	return 0
}

func (c *checker) meanKBehind() float64 {
	if r := c.reads.Load(); r > 0 {
		return float64(c.kBehindSum.Load()) / float64(r)
	}
	return 0
}
