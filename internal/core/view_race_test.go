package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// TestRaceViewsDuringL0Merges runs readers against a writer whose batches
// land in L0 and whose partial L0 merges drain windows of it into L1 while
// the readers hold and rebuild views. Every key is written twice, in two
// passes over a shuffled key order; a payload carries its key and pass.
//
// The writer checks read-your-write: as soon as ApplyBatch returns, a
// fresh view serves every key of the batch at that pass. The readers check
// that no acknowledged record goes missing while it moves from L0 to L1:
// a view acquired after the writer acknowledged op o serves the keys of
// ops [0, o) at least as new as acknowledged — the latest ones by Get on
// every pass, all of them by Scan on every 16th.
func TestRaceViewsDuringL0Merges(t *testing.T) {
	const (
		keys    = 1500
		batch   = 7
		readers = 3
	)
	tr, err := New(Config{
		Device:        storage.NewMemDevice(),
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 8,
		K0:            4, // L0 overflows at 32 records: an L0 merge every few batches
		Gamma:         4,
		Epsilon:       0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(7)).Perm(keys)
	payload := func(k block.Key, pass int) []byte {
		p := make([]byte, 9)
		binary.LittleEndian.PutUint64(p, uint64(k))
		p[8] = byte(pass)
		return p
	}
	// check reports whether p is k's payload at pass >= minPass.
	check := func(k block.Key, p []byte, minPass int) error {
		if len(p) != 9 || binary.LittleEndian.Uint64(p) != uint64(k) {
			return fmt.Errorf("key %d: foreign payload %x", k, p)
		}
		if int(p[8]) < minPass {
			return fmt.Errorf("key %d: pass %d served after pass %d was acknowledged", k, p[8], minPass)
		}
		return nil
	}

	var acked atomic.Int64 // ops [0, acked) are acknowledged
	var stop atomic.Bool
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; !stop.Load(); pass++ {
				if err := readerPass(tr, perm, int(acked.Load()), pass%16 == 0, check); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	merges := 0
	for o := 0; o < 2*keys && len(errs) == 0; o += batch {
		ops := make([]BatchOp, 0, batch)
		for i := o; i < min(o+batch, 2*keys); i++ {
			k := block.Key(perm[i%keys])
			ops = append(ops, BatchOp{Key: k, Payload: payload(k, i/keys)})
		}
		if err := tr.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(min(o+batch, 2*keys)))
		// Acquiring a view rebuilds it; check read-your-write on every
		// other batch only, so the other half reach their L0 merge with
		// the view still stale.
		if o/batch%2 == 1 {
			readYourWrite(t, tr, ops, check)
		}
		for tr.NeedsCompaction() {
			if tr.fires(0) {
				merges++
			}
			if _, err := tr.CompactionStep(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if merges < 50 {
		t.Fatalf("only %d L0 merges ran; the test needs many", merges)
	}
	if n := tr.LiveViews(); n != 1 {
		t.Fatalf("%d live views after every reader released, want 1", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// readYourWrite checks that a view acquired right after ApplyBatch serves
// every op of the batch.
func readYourWrite(t *testing.T, tr *Tree, ops []BatchOp, check func(block.Key, []byte, int) error) {
	t.Helper()
	v, err := tr.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	for _, op := range ops {
		p, ok, err := v.Get(op.Key)
		if err != nil || !ok {
			t.Fatalf("read-your-write: Get(%d) = %v,%v right after ApplyBatch", op.Key, ok, err)
		}
		if err := check(op.Key, p, int(op.Payload[8])); err != nil {
			t.Fatalf("read-your-write: %v", err)
		}
	}
}

// readerPass acquires one view after ops [0, acked) were acknowledged and
// checks that it serves all of them at least as new as acknowledged: by
// Get for the latest ops, whose keys L0 merges are moving, and, when full
// is set, by one Scan for every key.
func readerPass(tr *Tree, perm []int, acked int, full bool, check func(block.Key, []byte, int) error) error {
	keys := len(perm)
	v, err := tr.AcquireView()
	if err != nil {
		return err
	}
	defer v.Release()
	var got map[block.Key][]byte
	if full {
		got = make(map[block.Key][]byte, keys)
		if err := v.Scan(0, ^block.Key(0), func(k block.Key, p []byte) bool {
			got[k] = p
			return true
		}); err != nil {
			return err
		}
	}
	for o := max(acked-2*keys, 0); o < acked; o++ {
		if !full && o < acked-64 {
			o = acked - 64
		}
		k := block.Key(perm[o%keys])
		minPass := 0 // the pass of k acknowledged by acked
		if o%keys+keys < acked {
			minPass = 1
		}
		p, ok := got[k]
		if !full {
			if p, ok, err = v.Get(k); err != nil {
				return err
			}
		}
		if !ok {
			return fmt.Errorf("view %d (%d ops acked) lost key %d of op %d (full scan %v)", v.Seq(), acked, k, o, full)
		}
		if err := check(k, p, minPass); err != nil {
			return err
		}
	}
	return nil
}
