package core

import (
	"lsmssd/internal/block"
)

// Put inserts or updates the record for k. The write lands in L0; storage
// levels change only through merges, which Put no longer drives: after
// the mutation the caller (internal/compaction) runs or schedules the
// overflow cascade via CompactionStep/RunCascade. Writer-side: callers
// serialize. The error return is reserved for future L0 failure modes;
// today Put always succeeds.
func (t *Tree) Put(k block.Key, payload []byte) error {
	return t.ApplyBatch([]BatchOp{{Key: k, Payload: payload}})
}

// Delete removes k. If k lives in L0 the request executes there (the
// record is replaced by a tombstone); otherwise the delete is logged as a
// tombstone record that cancels matching records during merges. Like
// Put, Delete leaves the overflow cascade to the caller.
func (t *Tree) Delete(k block.Key) error {
	return t.ApplyBatch([]BatchOp{{Key: k, Delete: true}})
}

// BatchOp is one modification inside an ApplyBatch call: an upsert of
// Payload under Key, or a delete of Key when Delete is set.
type BatchOp struct {
	Key     block.Key
	Payload []byte
	Delete  bool
}

// ApplyBatch applies ops in order as a single writer step. The ops land
// in L0 under viewMu and leave the current view stale rather than
// publishing a new one: the next AcquireView captures L0 with the whole
// batch in it, so no reader observes a prefix of the batch, and writes
// that no reader follows build no view at all.
//
// Request statistics count each op individually, keeping a batched
// workload's Stats comparable to the same workload issued record by
// record.
func (t *Tree) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	t.viewMu.Lock()
	for _, op := range ops {
		t.applyOne(op)
	}
	t.stale = true
	t.viewMu.Unlock()
	return nil
}

// applyOne lands one modification in L0 and accounts for it.
func (t *Tree) applyOne(op BatchOp) {
	t.cnt.requests.Add(1)
	if op.Delete {
		t.cnt.deletes.Add(1)
		t.cnt.requestBytes.Add(8) // a delete request carries only the key
		if r, ok := t.mem.Get(op.Key); ok && r.Tombstone {
			return // already logged
		}
		t.mem.Put(block.Record{Key: op.Key, Tombstone: true})
		return
	}
	r := block.Record{Key: op.Key, Payload: op.Payload}
	t.mem.Put(r)
	t.cnt.inserts.Add(1)
	t.cnt.requestBytes.Add(int64(r.Size()))
}

// Get returns the payload stored for k. It acquires the current snapshot,
// so it is safe to call concurrently with the writer and with other
// readers.
func (t *Tree) Get(k block.Key) ([]byte, bool, error) {
	v, err := t.AcquireView()
	if err != nil {
		return nil, false, err
	}
	defer v.Release()
	return v.Get(k)
}

// Scan calls fn for every live record with key in [lo, hi], in key order,
// stopping early when fn returns false. The whole scan runs against one
// snapshot: merges that complete mid-scan do not change what it sees.
func (t *Tree) Scan(lo, hi block.Key, fn func(k block.Key, payload []byte) bool) error {
	v, err := t.AcquireView()
	if err != nil {
		return err
	}
	defer v.Release()
	return v.Scan(lo, hi, fn)
}
