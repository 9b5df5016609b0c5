// Package memtable implements L0, the memory-resident top level of the
// LSM-tree, as a sorted sequence of record chunks ("leaves").
//
// L0 "logs" modifications: an insert stores an index record; a delete or
// update for a key not present in L0 stores a tombstone/update record that
// will cancel out matching records in lower levels during merges
// (Section II-A). Because partial merge policies operate on block windows,
// the memtable presents its contents as a sequence of *virtual blocks* of
// B records each, with the same metadata (min key, max key, count) that
// on-storage levels expose.
//
// Layout: a spine holds one fence key (the leaf's smallest key) per leaf
// and the leaves themselves, each a sorted slice of at most maxLeaf
// records. A point operation binary-searches the fences, then the leaf;
// ranges, virtual blocks and draining are scans over contiguous arrays.
//
// Snapshots use owner-epoch copy-on-write. The table has an epoch, and
// every leaf, like the spine, records the epoch that owns it. A mutation
// changes memory its current epoch owns in place and copies anything
// older first. Snapshot captures the spine in O(1) and bumps the epoch,
// so everything the snapshot can reach becomes older than the table and
// is never written again: the snapshot can be read without
// synchronization while the table keeps changing, which the engine's
// snapshot-isolated read path is built on. Between snapshots, writes
// allocate nothing beyond leaf splits. A Table itself is single-writer
// (the tree serializes mutations); Snapshots are safe for any number of
// concurrent readers.
package memtable

import (
	"slices"
	"sort"

	"lsmssd/internal/block"
)

// maxLeaf bounds a leaf's record count: a full leaf splits in halves on
// insert. Small enough that copying a shared leaf stays cheap, large
// enough that the spine stays short.
const maxLeaf = 64

// leaf is one sorted chunk of records. recs always has capacity maxLeaf.
type leaf struct {
	epoch uint64 // table epoch that owns recs; older leaves are shared
	recs  []block.Record
}

func newLeaf(epoch uint64, recs []block.Record) *leaf {
	lf := &leaf{epoch: epoch, recs: make([]block.Record, len(recs), maxLeaf)}
	copy(lf.recs, recs)
	return lf
}

// search returns the index of the first record with key >= k and whether
// that record's key is k.
func (lf *leaf) search(k block.Key) (int, bool) {
	recs := lf.recs
	j := sort.Search(len(recs), func(i int) bool { return recs[i].Key >= k })
	return j, j < len(recs) && recs[j].Key == k
}

// spine is the immutable-once-shared part of a table that a Snapshot
// captures: fences[i] is leaves[i]'s smallest key, and no leaf is empty.
type spine struct {
	fences []block.Key
	leaves []*leaf
	n      int // records, including tombstones
}

// leafAt returns the index of the leaf whose key range would hold k: the
// last leaf whose fence is <= k, or -1 when k sorts before every leaf.
func (s *spine) leafAt(k block.Key) int {
	f := s.fences
	return sort.Search(len(f), func(i int) bool { return f[i] > k }) - 1
}

func (s *spine) get(k block.Key) (block.Record, bool) {
	i := s.leafAt(k)
	if i < 0 {
		return block.Record{}, false
	}
	lf := s.leaves[i]
	if j, ok := lf.search(k); ok {
		return lf.recs[j], true
	}
	return block.Record{}, false
}

func (s *spine) ascend(lo, hi block.Key, fn func(block.Record) bool) {
	i := max(s.leafAt(lo), 0)
	if i >= len(s.leaves) {
		return
	}
	j, _ := s.leaves[i].search(lo)
	for ; i < len(s.leaves); i, j = i+1, 0 {
		for _, r := range s.leaves[i].recs[j:] {
			if r.Key > hi || !fn(r) {
				return
			}
		}
	}
}

// Table is the L0 index. Mutations are single-writer (the tree serializes
// them); captured Snapshots remain readable concurrently.
type Table struct {
	spine
	epoch      uint64 // bumped by Snapshot; memory owned by an older epoch is shared
	spineEpoch uint64 // epoch owning the fences/leaves backing arrays
	version    uint64 // bumped by every change; lets callers memoize views
}

// New returns an empty memtable. The argument is unused: the layout
// depends only on the operations applied.
func New(int64) *Table { return &Table{} }

// Len returns the number of records (including tombstones) in the table.
func (t *Table) Len() int { return t.n }

// Version returns a counter that changes with every change to the
// contents, so derived views (e.g. virtual-block metadata) can be cached
// until the table changes. Calls that change nothing leave it alone.
func (t *Table) Version() uint64 { return t.version }

// ownSpine makes the fences and leaves slices writable: if a snapshot may
// share their backing arrays, they are copied first.
func (t *Table) ownSpine() {
	if t.spineEpoch == t.epoch {
		return
	}
	t.fences = append(make([]block.Key, 0, len(t.fences)+2), t.fences...)
	t.leaves = append(make([]*leaf, 0, len(t.leaves)+2), t.leaves...)
	t.spineEpoch = t.epoch
}

// ownLeaf makes leaf i writable, copying it (and so the spine) when an
// older epoch owns it.
func (t *Table) ownLeaf(i int) *leaf {
	lf := t.leaves[i]
	if lf.epoch == t.epoch {
		return lf
	}
	t.ownSpine()
	lf = newLeaf(t.epoch, lf.recs)
	t.leaves[i] = lf
	return lf
}

// cut reduces leaf x to its records [a, b), which must be non-empty, and
// returns it owned.
func (t *Table) cut(x, a, b int) *leaf {
	lf := t.ownLeaf(x)
	n := len(lf.recs)
	lf.recs = append(lf.recs[:0], lf.recs[a:b]...)
	clear(lf.recs[b-a : n])
	return lf
}

// Put inserts or overwrites the record for r.Key.
func (t *Table) Put(r block.Record) {
	t.version++
	if len(t.leaves) == 0 {
		t.ownSpine()
		t.fences = append(t.fences, r.Key)
		t.leaves = append(t.leaves, newLeaf(t.epoch, []block.Record{r}))
		t.n = 1
		return
	}
	i := max(t.leafAt(r.Key), 0)
	j, found := t.leaves[i].search(r.Key)
	if found {
		t.ownLeaf(i).recs[j] = r
		return
	}
	if len(t.leaves[i].recs) == maxLeaf {
		t.split(i)
		if j > maxLeaf/2 {
			i, j = i+1, j-maxLeaf/2
		}
	}
	lf := t.ownLeaf(i)
	lf.recs = append(lf.recs, block.Record{})
	copy(lf.recs[j+1:], lf.recs[j:])
	lf.recs[j] = r
	if j == 0 {
		t.ownSpine()
		t.fences[i] = r.Key
	}
	t.n++
}

// split replaces the full leaf i with two half leaves.
func (t *Table) split(i int) {
	half := maxLeaf / 2
	right := newLeaf(t.epoch, t.leaves[i].recs[half:])
	t.cut(i, 0, half)
	t.ownSpine()
	t.fences = slices.Insert(t.fences, i+1, right.recs[0].Key)
	t.leaves = slices.Insert(t.leaves, i+1, right)
}

// Get returns the record stored for k, if any. The caller must check
// Tombstone to interpret the result.
func (t *Table) Get(k block.Key) (block.Record, bool) { return t.get(k) }

// Delete removes the record for k, reporting whether it was present. An
// absent key leaves the table, its version included, untouched. Note
// this is a physical removal used when draining merged ranges; a logical
// delete request is a Put of a tombstone record.
func (t *Table) Delete(k block.Key) bool { return len(t.TakeRange(k, k)) == 1 }

// Ascend calls fn for each record with key in [lo, hi] in key order,
// stopping early if fn returns false.
func (t *Table) Ascend(lo, hi block.Key, fn func(block.Record) bool) {
	t.ascend(lo, hi, fn)
}

// All returns every record in key order. It allocates; use Ascend for
// streaming access.
func (t *Table) All() []block.Record {
	out := make([]block.Record, 0, t.n)
	for _, lf := range t.leaves {
		out = append(out, lf.recs...)
	}
	return out
}

// TakeRange removes and returns all records with key in [lo, hi], in key
// order. Merges from L0 call this to drain the merged window. An empty
// range leaves the table, its version included, untouched.
func (t *Table) TakeRange(lo, hi block.Key) []block.Record {
	if lo > hi || len(t.leaves) == 0 {
		return nil
	}
	i := max(t.leafAt(lo), 0)
	j, _ := t.leaves[i].search(lo)
	if j == len(t.leaves[i].recs) {
		i, j = i+1, 0
	}
	e := t.leafAt(hi)
	if e < 0 || i > e {
		return nil
	}
	f, found := t.leaves[e].search(hi)
	if found {
		f++
	}
	if i == e && j >= f {
		return nil
	}
	n := f - j
	for _, lf := range t.leaves[i:e] {
		n += len(lf.recs)
	}
	out := make([]block.Record, 0, n)
	if i == e {
		out = append(out, t.leaves[i].recs[j:f]...)
	} else {
		out = append(out, t.leaves[i].recs[j:]...)
		for _, lf := range t.leaves[i+1 : e] {
			out = append(out, lf.recs...)
		}
		out = append(out, t.leaves[e].recs[:f]...)
	}
	t.n -= len(out)
	t.remove(i, j, e, f)
	return out
}

// remove deletes the records from leaves[i].recs[j] up to, not including,
// leaves[e].recs[f] (i <= e; the range holds at least one record). What
// survives of leaves i and e is rejoined into one leaf when it fits, and
// a small survivor is folded into a neighbour, so draining windows does
// not fragment the spine.
func (t *Table) remove(i, j, e, f int) {
	t.version++
	var repl [2]*leaf
	nr := 0
	if i == e {
		lf := t.ownLeaf(i)
		n := len(lf.recs)
		lf.recs = append(lf.recs[:j], lf.recs[f:]...)
		clear(lf.recs[len(lf.recs):n])
		if len(lf.recs) > 0 {
			repl[0], nr = lf, 1
		}
	} else {
		right := t.leaves[e].recs[f:]
		if j > 0 {
			repl[0], nr = t.cut(i, 0, j), 1
			if j+len(right) <= maxLeaf {
				repl[0].recs = append(repl[0].recs, right...)
				right = nil
			}
		}
		if len(right) > 0 {
			repl[nr] = t.cut(e, f, f+len(right))
			nr++
		}
	}
	t.ownSpine()
	for k, lf := range repl[:nr] {
		t.leaves[i+k] = lf
		t.fences[i+k] = lf.recs[0].Key
	}
	t.leaves = slices.Delete(t.leaves, i+nr, e+1)
	t.fences = slices.Delete(t.fences, i+nr, e+1)
	for x := max(i-1, 0); x <= i+nr; x++ {
		if t.foldSmall(x) {
			break
		}
	}
}

// foldSmall merges leaf x into a neighbour when it holds under a quarter
// of maxLeaf records and the pair fits in three quarters, reporting
// whether it did.
func (t *Table) foldSmall(x int) bool {
	if x >= len(t.leaves) || len(t.leaves[x].recs) >= maxLeaf/4 {
		return false
	}
	for a := x - 1; a <= x; a++ {
		b := a + 1
		if a < 0 || b >= len(t.leaves) || len(t.leaves[a].recs)+len(t.leaves[b].recs) > maxLeaf*3/4 {
			continue
		}
		lf := t.ownLeaf(a)
		lf.recs = append(lf.recs, t.leaves[b].recs...)
		t.ownSpine()
		t.leaves = slices.Delete(t.leaves, b, b+1)
		t.fences = slices.Delete(t.fences, b, b+1)
		return true
	}
	return false
}

// VirtualMeta describes one virtual block of the memtable: a run of up to
// capacity records presented with level-style block metadata so that the
// partial merge policies (RR, ChooseBest) can treat L0 like any other
// source level.
type VirtualMeta struct {
	Min, Max block.Key
	Count    int
}

// VirtualBlocks chunks the table into virtual blocks of the given capacity
// and returns their metadata. It touches each leaf once and reads only
// the records on block boundaries.
func (t *Table) VirtualBlocks(capacity int) []VirtualMeta {
	if capacity < 1 {
		panic("memtable: capacity must be >= 1")
	}
	if t.n == 0 {
		return nil
	}
	metas := make([]VirtualMeta, 0, (t.n+capacity-1)/capacity)
	var cur VirtualMeta
	for _, lf := range t.leaves {
		for recs := lf.recs; len(recs) > 0; {
			if cur.Count == 0 {
				cur.Min = recs[0].Key
			}
			take := min(capacity-cur.Count, len(recs))
			cur.Count += take
			cur.Max = recs[take-1].Key
			recs = recs[take:]
			if cur.Count == capacity {
				metas = append(metas, cur)
				cur = VirtualMeta{}
			}
		}
	}
	if cur.Count > 0 {
		metas = append(metas, cur)
	}
	return metas
}

// Snapshot is an immutable point-in-time view of the table, safe for
// concurrent readers while the table keeps mutating.
type Snapshot struct {
	s spine
}

// Snapshot captures the current contents in O(1). It moves the table to
// a new epoch, so the captured memory is copied before any later write.
func (t *Table) Snapshot() Snapshot {
	t.epoch++
	return Snapshot{s: t.spine}
}

// Len returns the number of records (including tombstones) in the snapshot.
func (s *Snapshot) Len() int { return s.s.n }

// Get returns the record stored for k at capture time, if any.
func (s *Snapshot) Get(k block.Key) (block.Record, bool) { return s.s.get(k) }

// Ascend calls fn for each captured record with key in [lo, hi] in key
// order, stopping early if fn returns false.
func (s *Snapshot) Ascend(lo, hi block.Key, fn func(block.Record) bool) {
	s.s.ascend(lo, hi, fn)
}
