package main

import (
	"encoding/binary"
	"sync/atomic"
)

// valueSize is the payload of every generated put: the paper's 100-byte
// records.
const valueSize = 100

// scatter maps a key index to a key spread over [0, 2^40): multiplication
// by an odd constant is a bijection modulo 2^40, so distinct indices give
// distinct keys and neighbouring indices land far apart.
func scatter(i uint64) uint64 {
	return (i * 0x9E3779B97F4A7C15) & (1<<40 - 1)
}

// hotBase is where mixed's dense hot range starts: above every scattered
// key, so the two key sets never meet.
const hotBase = 1 << 41

// encodeValue fills dst (valueSize bytes) with the key, the write's
// sequence number, and filler derived from both, so a read can be checked
// against the write that produced it.
func encodeValue(dst []byte, key uint64, seq uint32) {
	binary.LittleEndian.PutUint64(dst[0:8], key)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(seq))
	x := key*0xBF58476D1CE4E5B9 ^ uint64(seq)*0x94D049BB133111EB | 1
	for i := 16; i < valueSize; i++ {
		if i%8 == 0 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		dst[i] = byte(x >> (8 * (i % 8)))
	}
}

// decodeValue returns the sequence number encoded in v, or ok=false when
// v is not a value encodeValue wrote for key.
func decodeValue(key uint64, v []byte) (seq uint32, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint64(v[0:8]) != key {
		return 0, false
	}
	s := binary.LittleEndian.Uint64(v[8:16])
	if s == 0 || s > 1<<32-1 {
		return 0, false
	}
	var want [valueSize]byte
	encodeValue(want[:], key, uint32(s))
	if string(want[16:]) != string(v[16:]) {
		return 0, false
	}
	return uint32(s), true
}

// model is the benchmark's record of what the store must hold: per key
// index, the sequence number of the last acknowledged put (acked) and of
// the last put issued (issued, set before the call). Sequence 0 means
// never written. Puts to one key come from one goroutine only, so per key
// issued and acked only grow; a read racing a put may see any sequence in
// [acked at read start, issued at read end].
type model struct {
	acked  []atomic.Uint32
	issued []atomic.Uint32
	seq    atomic.Uint32
	puts   atomic.Int64 // acknowledged puts
}

func newModel(keys int) *model {
	return &model{acked: make([]atomic.Uint32, keys), issued: make([]atomic.Uint32, keys)}
}

// next reserves the sequence number for a put of key index i.
func (m *model) next(i int) uint32 {
	s := m.seq.Add(1)
	m.issued[i].Store(s)
	return s
}

// ack records that the put of key index i with sequence s returned.
func (m *model) ack(i int, s uint32) {
	m.acked[i].Store(s)
	m.puts.Add(1)
}

// checkRead reports whether a read of key index i that started when
// acked[i] was lo returned an admissible result.
func (m *model) checkRead(i int, key uint64, lo uint32, v []byte, found bool) bool {
	if !found {
		return lo == 0
	}
	s, ok := decodeValue(key, v)
	return ok && s >= lo && s <= m.issued[i].Load()
}

// live returns the number of keys ever written: no workload deletes.
func (m *model) live() int64 {
	var n int64
	for i := range m.acked {
		if m.acked[i].Load() != 0 {
			n++
		}
	}
	return n
}
