package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
)

func rec(k block.Key) block.Record {
	return block.Record{Key: k, Payload: []byte{byte(k)}}
}

func TestPutGetOverwrite(t *testing.T) {
	m := New(1)
	m.Put(rec(5))
	m.Put(rec(3))
	m.Put(rec(7))
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	r, ok := m.Get(5)
	if !ok || r.Key != 5 {
		t.Fatalf("Get(5) = %v,%v", r, ok)
	}
	if _, ok := m.Get(4); ok {
		t.Fatal("Get(4) found a missing key")
	}
	// Overwrite does not grow the table and replaces the record.
	m.Put(block.Record{Key: 5, Tombstone: true})
	if m.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", m.Len())
	}
	r, _ = m.Get(5)
	if !r.Tombstone {
		t.Fatal("overwrite with tombstone not visible")
	}
}

func TestDelete(t *testing.T) {
	m := New(1)
	for k := block.Key(0); k < 100; k++ {
		m.Put(rec(k))
	}
	for k := block.Key(0); k < 100; k += 2 {
		if !m.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	if m.Delete(2) {
		t.Fatal("double delete succeeded")
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d, want 50", m.Len())
	}
	for k := block.Key(1); k < 100; k += 2 {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("odd key %d lost", k)
		}
	}
}

func TestAscendRange(t *testing.T) {
	m := New(1)
	for _, k := range []block.Key{10, 20, 30, 40, 50} {
		m.Put(rec(k))
	}
	var got []block.Key
	m.Ascend(15, 45, func(r block.Record) bool {
		got = append(got, r.Key)
		return true
	})
	want := []block.Key{20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("Ascend got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend got %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	m.Ascend(0, 100, func(block.Record) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestTakeRange(t *testing.T) {
	m := New(1)
	for k := block.Key(1); k <= 10; k++ {
		m.Put(rec(k))
	}
	out := m.TakeRange(3, 7)
	if len(out) != 5 {
		t.Fatalf("TakeRange returned %d records, want 5", len(out))
	}
	for i, r := range out {
		if r.Key != block.Key(3+i) {
			t.Fatalf("TakeRange out of order: %v", out)
		}
	}
	if m.Len() != 5 {
		t.Fatalf("Len after TakeRange = %d, want 5", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("taken key still present")
	}
}

func TestVirtualBlocks(t *testing.T) {
	m := New(1)
	for k := block.Key(0); k < 10; k++ {
		m.Put(rec(k * 10))
	}
	metas := m.VirtualBlocks(4)
	if len(metas) != 3 {
		t.Fatalf("got %d virtual blocks, want 3", len(metas))
	}
	if metas[0].Min != 0 || metas[0].Max != 30 || metas[0].Count != 4 {
		t.Errorf("meta[0] = %+v", metas[0])
	}
	if metas[2].Min != 80 || metas[2].Max != 90 || metas[2].Count != 2 {
		t.Errorf("meta[2] = %+v", metas[2])
	}
	if got := m.VirtualBlocks(100); len(got) != 1 || got[0].Count != 10 {
		t.Errorf("single virtual block = %+v", got)
	}
}

func TestAllSorted(t *testing.T) {
	m := New(42)
	rng := rand.New(rand.NewSource(7))
	want := map[block.Key]bool{}
	for i := 0; i < 1000; i++ {
		k := block.Key(rng.Intn(500))
		m.Put(rec(k))
		want[k] = true
	}
	all := m.All()
	if len(all) != len(want) {
		t.Fatalf("All returned %d records, want %d", len(all), len(want))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Fatal("All not sorted")
	}
}

// Property: the memtable behaves exactly like a map + sort under random
// puts and deletes.
func TestQuickModelCheck(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		m := New(seed)
		model := map[block.Key][]byte{}
		for _, op := range ops {
			k := block.Key(op % 64)
			if op%3 == 0 {
				m.Delete(k)
				delete(model, k)
			} else {
				p := []byte{byte(op)}
				m.Put(block.Record{Key: k, Payload: p})
				model[k] = p
			}
		}
		if m.Len() != len(model) {
			return false
		}
		for k, p := range model {
			r, ok := m.Get(k)
			if !ok || len(r.Payload) != 1 || r.Payload[0] != p[0] {
				return false
			}
		}
		all := m.All()
		for i := 1; i < len(all); i++ {
			if all[i-1].Key >= all[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: virtual blocks partition the table: counts sum to Len, ranges
// are disjoint and ordered, every block has 1..capacity records.
func TestQuickVirtualBlocksPartition(t *testing.T) {
	f := func(n uint16, capSeed uint8, seed int64) bool {
		capacity := int(capSeed)%10 + 1
		m := New(seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%300; i++ {
			m.Put(rec(block.Key(rng.Intn(10000))))
		}
		metas := m.VirtualBlocks(capacity)
		total := 0
		for i, vm := range metas {
			if vm.Count < 1 || vm.Count > capacity || vm.Min > vm.Max {
				return false
			}
			if i > 0 && metas[i-1].Max >= vm.Min {
				return false
			}
			total += vm.Count
		}
		return total == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// checkShape verifies the table's structural invariants: every leaf is
// non-empty, holds at most maxLeaf records in ascending key order, and is
// fenced by its first key; the fences ascend; the counts add up.
func checkShape(t *testing.T, m *Table) {
	t.Helper()
	if len(m.fences) != len(m.leaves) {
		t.Fatalf("%d fences for %d leaves", len(m.fences), len(m.leaves))
	}
	n := 0
	var prev block.Key
	for i, lf := range m.leaves {
		if len(lf.recs) == 0 || len(lf.recs) > maxLeaf {
			t.Fatalf("leaf %d holds %d records", i, len(lf.recs))
		}
		if m.fences[i] != lf.recs[0].Key {
			t.Fatalf("leaf %d fenced at %d, first key %d", i, m.fences[i], lf.recs[0].Key)
		}
		for j, r := range lf.recs {
			if (i > 0 || j > 0) && r.Key <= prev {
				t.Fatalf("leaf %d record %d: key %d after %d", i, j, r.Key, prev)
			}
			prev = r.Key
			n++
		}
	}
	if n != m.Len() {
		t.Fatalf("counted %d records, table says %d", n, m.Len())
	}
}

// TestNoopLeavesTableUntouched pins that a Delete of an absent key and a
// TakeRange of an empty range change nothing: not the contents, not the
// leaves, not the version that memoized views key on.
func TestNoopLeavesTableUntouched(t *testing.T) {
	m := New(1)
	for k := block.Key(0); k < 400; k += 2 {
		m.Put(rec(k))
	}
	_ = m.Snapshot() // a pinned snapshot must not make no-ops copy either
	ver, leaves := m.Version(), append([]*leaf(nil), m.leaves...)
	if m.Delete(3) || m.Delete(1001) {
		t.Fatal("Delete of an absent key reported success")
	}
	for _, r := range [][2]block.Key{{3, 3}, {401, 900}, {10, 5}, {131, 131}} {
		if out := m.TakeRange(r[0], r[1]); len(out) != 0 {
			t.Fatalf("TakeRange(%d, %d) = %d records, want none", r[0], r[1], len(out))
		}
	}
	if m.Version() != ver {
		t.Fatalf("version moved %d -> %d on no-op calls", ver, m.Version())
	}
	if len(m.leaves) != len(leaves) {
		t.Fatalf("leaf count moved %d -> %d", len(leaves), len(m.leaves))
	}
	for i := range leaves {
		if m.leaves[i] != leaves[i] {
			t.Fatalf("leaf %d replaced by a no-op call", i)
		}
	}
	if !m.Delete(4) || m.Version() == ver {
		t.Fatal("a real Delete did not bump the version")
	}
	checkShape(t, m)
}

// TestTakeRangeAcrossLeaves drains windows that start and end inside
// leaves, span whole leaves and empty the table, checking the shape and
// the drained records each time.
func TestTakeRangeAcrossLeaves(t *testing.T) {
	m := New(1)
	for k := block.Key(0); k < 1000; k++ {
		m.Put(rec(k))
	}
	checkShape(t, m)
	for _, r := range [][2]block.Key{{100, 449}, {50, 60}, {0, 0}, {990, 5000}, {0, 999}} {
		before := m.All()
		out := m.TakeRange(r[0], r[1])
		var want []block.Record
		for _, x := range before {
			if x.Key >= r[0] && x.Key <= r[1] {
				want = append(want, x)
			}
		}
		if len(out) != len(want) {
			t.Fatalf("TakeRange(%d, %d) = %d records, want %d", r[0], r[1], len(out), len(want))
		}
		for i := range want {
			if out[i].Key != want[i].Key {
				t.Fatalf("TakeRange(%d, %d)[%d] = key %d, want %d", r[0], r[1], i, out[i].Key, want[i].Key)
			}
		}
		if m.Len() != len(before)-len(want) {
			t.Fatalf("Len = %d after taking %d of %d", m.Len(), len(want), len(before))
		}
		checkShape(t, m)
	}
	if m.Len() != 0 || len(m.leaves) != 0 {
		t.Fatalf("table not empty after draining everything: %d records, %d leaves", m.Len(), len(m.leaves))
	}
}

// frozen is what a test expects a pinned snapshot to keep returning.
type frozen struct {
	snap Snapshot
	recs []block.Record // sorted, as captured
}

func freeze(m *Table, model map[block.Key]block.Record) frozen {
	f := frozen{snap: m.Snapshot()}
	for _, r := range model {
		f.recs = append(f.recs, r)
	}
	sort.Slice(f.recs, func(i, j int) bool { return f.recs[i].Key < f.recs[j].Key })
	return f
}

func sameRecord(a, b block.Record) bool {
	return a.Key == b.Key && a.Tombstone == b.Tombstone && bytes.Equal(a.Payload, b.Payload)
}

// verify reports how the snapshot differs from its captured contents, or
// "" when it does not.
func (f *frozen) verify(rng *rand.Rand, keySpace int) string {
	if f.snap.Len() != len(f.recs) {
		return fmt.Sprintf("Len %d, captured %d", f.snap.Len(), len(f.recs))
	}
	lo := block.Key(rng.Intn(keySpace))
	hi := lo + block.Key(rng.Intn(keySpace/2))
	for _, r := range [][2]block.Key{{0, ^block.Key(0)}, {lo, hi}} {
		var got []block.Record
		f.snap.Ascend(r[0], r[1], func(x block.Record) bool {
			got = append(got, x)
			return true
		})
		var want []block.Record
		for _, x := range f.recs {
			if x.Key >= r[0] && x.Key <= r[1] {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			return fmt.Sprintf("Ascend(%d, %d) = %d records, captured %d", r[0], r[1], len(got), len(want))
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				return fmt.Sprintf("Ascend(%d, %d)[%d] = %+v, captured %+v", r[0], r[1], i, got[i], want[i])
			}
		}
	}
	j := 0
	for k := 0; k < keySpace; k++ {
		got, ok := f.snap.Get(block.Key(k))
		present := j < len(f.recs) && f.recs[j].Key == block.Key(k)
		if ok != present || (present && !sameRecord(got, f.recs[j])) {
			return fmt.Sprintf("Get(%d) = %+v,%v after the capture changed", k, got, ok)
		}
		if present {
			j++
		}
	}
	return ""
}

// Property: snapshots are frozen. Snapshots pinned at random points of a
// random Put/Delete/TakeRange sequence return exactly their captured
// Get, Ascend and Len, however the table changes after them, and
// the table itself keeps matching a map model.
func TestQuickSnapshotIsolation(t *testing.T) {
	const keySpace = 600
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(seed)
		model := map[block.Key]block.Record{}
		var pins []frozen
		for i := 0; i < 500+int(n)%2500; i++ {
			k := block.Key(rng.Intn(keySpace))
			switch op := rng.Intn(100); {
			case op < 3:
				pins = append(pins, freeze(m, model))
			case op < 10:
				m.Delete(k)
				delete(model, k)
			case op < 13:
				hi := k + block.Key(rng.Intn(150))
				for _, r := range m.TakeRange(k, hi) {
					if !sameRecord(r, model[r.Key]) {
						t.Logf("TakeRange returned %+v, model has %+v", r, model[r.Key])
						return false
					}
					delete(model, r.Key)
				}
			default:
				r := block.Record{Key: k, Payload: []byte{byte(i), byte(i >> 8)}, Tombstone: op%17 == 0}
				m.Put(r)
				model[k] = r
			}
		}
		for i := range pins {
			if msg := pins[i].verify(rng, keySpace); msg != "" {
				t.Logf("seed %d, snapshot %d of %d: %s", seed, i, len(pins), msg)
				return false
			}
		}
		cur := freeze(m, model)
		if msg := cur.verify(rng, keySpace); msg != "" {
			t.Logf("seed %d, live table: %s", seed, msg)
			return false
		}
		checkShape(t, m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- per-layer benchmarks ---------------------------------------------------

// The benchmarks hold the table at the engine's L0 steady state with the
// repository benchmark's geometry: K0 = 64 virtual blocks of B = 36
// records, drained δ·K0 ≈ 5 blocks at a time, as a partial L0 merge does.
const (
	benchB      = 36
	benchFull   = 64 * benchB
	benchWindow = 5
)

// drainWindow takes a window of benchWindow virtual blocks starting at a
// rotating position, as the L0 merge policy does.
func drainWindow(m *Table, turn int) {
	vbs := m.VirtualBlocks(benchB)
	first := (turn * 7919) % (len(vbs) - benchWindow + 1)
	m.TakeRange(vbs[first].Min, vbs[first+benchWindow-1].Max)
}

func fillTable(m *Table, rng *rand.Rand, payload []byte) {
	for m.Len() < benchFull {
		m.Put(block.Record{Key: block.Key(rng.Uint64() >> 11), Payload: payload})
	}
}

// BenchmarkPut inserts uniform random keys into a steady-state L0, with no
// snapshot (the writer alone) and with a snapshot pinned before every
// put (a reader between every two writes: each put copies what it
// touches). Draining the table back below capacity is not timed.
func BenchmarkPut(b *testing.B) {
	for _, every := range []bool{false, true} {
		b.Run(fmt.Sprintf("snapshot=%v", every), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			payload := make([]byte, 100)
			m := New(1)
			fillTable(m, rng, payload)
			var pinned Snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Len() >= benchFull {
					b.StopTimer()
					drainWindow(m, i)
					b.StartTimer()
				}
				if every {
					pinned = m.Snapshot()
				}
				m.Put(block.Record{Key: block.Key(rng.Uint64() >> 11), Payload: payload})
			}
			_ = pinned
		})
	}
}

// BenchmarkVirtualBlocks computes the virtual-block metadata of a full L0
// (K0·B = 2304 records), the input of every L0 merge decision.
func BenchmarkVirtualBlocks(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	m := New(1)
	fillTable(m, rng, make([]byte, 100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vbs := m.VirtualBlocks(benchB); len(vbs) != 64 {
			b.Fatalf("%d virtual blocks, want 64", len(vbs))
		}
	}
}

// BenchmarkTakeRange drains a δ·K0 window from a full L0 while a snapshot
// taken just before pins the old contents, as a reader's view does
// during an L0 merge. Refilling the table is not timed.
func BenchmarkTakeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	payload := make([]byte, 100)
	m := New(1)
	var pinned Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillTable(m, rng, payload)
		vbs := m.VirtualBlocks(benchB)
		first := (i * 7919) % (len(vbs) - benchWindow + 1)
		pinned = m.Snapshot()
		b.StartTimer()
		m.TakeRange(vbs[first].Min, vbs[first+benchWindow-1].Max)
	}
	_ = pinned
}
