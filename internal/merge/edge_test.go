package merge

import (
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/storage"
)

// TestPreserveYBlockExplicit pins down the Y-side preservation path with
// perfectly interleaved full blocks: every block on both sides is reused
// in place — zero reads, zero writes.
func TestPreserveYBlockExplicit(t *testing.T) {
	dev := storage.NewMemDevice()
	srcLvl := level.New(level.Config{Device: dev, BlockCapacity: testB, Epsilon: 0.2, Capacity: 1 << 20})
	tgt := level.New(level.Config{Device: dev, BlockCapacity: testB, Epsilon: 0.2, Capacity: 1 << 20})
	put(t, srcLvl, []block.Key{10, 11, 12, 13}, []block.Key{30, 31, 32, 33})
	put(t, tgt, []block.Key{20, 21, 22, 23}, []block.Key{40, 41, 42, 43})
	before := dev.Counters()
	res, err := Merge(LevelSource{srcLvl}, 0, 2, tgt, Options{Preserve: true})
	if err != nil {
		t.Fatal(err)
	}
	// Y = Overlap(10, 33) = just [20..23]; the [40..43] block lies wholly
	// beyond the merged range and is not part of the merge at all.
	if res.PreservedX != 2 || res.PreservedY != 1 || res.YBlocks != 1 {
		t.Fatalf("preserved X=%d Y=%d yBlocks=%d, want 2/1/1: %+v",
			res.PreservedX, res.PreservedY, res.YBlocks, res)
	}
	after := dev.Counters()
	if after.Writes != before.Writes || after.Reads != before.Reads {
		t.Errorf("interleaved preservation cost %d writes, %d reads; want 0/0",
			after.Writes-before.Writes, after.Reads-before.Reads)
	}
	if _, _, err := RemoveSourceWindow(srcLvl, 0, 2, res.KeepSource); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, keysOf(t, tgt), []block.Key{
		10, 11, 12, 13, 20, 21, 22, 23, 30, 31, 32, 33, 40, 41, 42, 43,
	})
	if err := checkRun(tgt, 0.2); err != nil {
		t.Error(err)
	}
}

// TestPreserveRejectedBySlack verifies the slack budget: preserving a
// nearly-empty block would blow the waste allowance, so it is rewritten
// instead and the level stays within its waste bound.
func TestPreserveRejectedBySlack(t *testing.T) {
	dev := storage.NewMemDevice()
	srcLvl := level.New(level.Config{Device: dev, BlockCapacity: testB, Epsilon: 0.2, Capacity: 1 << 20})
	tgt := level.New(level.Config{Device: dev, BlockCapacity: testB, Epsilon: 0.2, Capacity: 1 << 20})
	// Target holds full blocks; the source block has a single record
	// (3 empty slots on B=4; ε·1·B = 0 slack) and would fit in the gap.
	put(t, tgt, []block.Key{10, 11, 12, 13}, []block.Key{100, 101, 102, 103})
	put(t, srcLvl, []block.Key{50})
	res, err := Merge(LevelSource{srcLvl}, 0, 1, tgt, Options{Preserve: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreservedX != 0 {
		t.Errorf("sparse block preserved despite zero slack: %+v", res)
	}
	if err := checkRun(tgt, 0.2); err != nil {
		t.Error(err)
	}
}

// TestEqualKeysAtBlockBoundaries exercises consolidation when the
// colliding key is exactly a block's min or max on either side.
func TestEqualKeysAtBlockBoundaries(t *testing.T) {
	tgt, _ := newTarget(t)
	put(t, tgt, []block.Key{10, 11, 12, 13}, []block.Key{14, 15, 16, 17})
	// X collides with 13 (a Y max) and 14 (a Y min).
	rs := []block.Record{
		{Key: 13, Payload: []byte{0xAA}},
		{Key: 14, Payload: []byte{0xBB}},
	}
	src := NewRecordSource(rs, testB)
	if _, err := Merge(src, 0, 1, tgt, Options{Preserve: true}); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, keysOf(t, tgt), []block.Key{10, 11, 12, 13, 14, 15, 16, 17})
	r13, _, _ := tgt.Get(13)
	r14, _, _ := tgt.Get(14)
	if r13.Payload[0] != 0xAA || r14.Payload[0] != 0xBB {
		t.Errorf("boundary consolidation lost X's records: %v %v", r13, r14)
	}
	if err := checkRun(tgt, 0.2); err != nil {
		t.Error(err)
	}
}

// TestMergeBeyondTargetEnd merges a window whose keys all lie beyond the
// target's max key (append pattern).
func TestMergeBeyondTargetEnd(t *testing.T) {
	tgt, dev := newTarget(t)
	put(t, tgt, []block.Key{10, 11, 12, 13})
	src := recSrc(100, 101, 102, 103)
	before := dev.Counters().Writes
	res, err := Merge(src, 0, 1, tgt, Options{Preserve: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.YBlocks != 0 {
		t.Errorf("YBlocks = %d, want 0", res.YBlocks)
	}
	wantKeys(t, keysOf(t, tgt), []block.Key{10, 11, 12, 13, 100, 101, 102, 103})
	if got := dev.Counters().Writes - before; got != 1 {
		t.Errorf("append merge cost %d writes, want 1", got)
	}
	if err := checkRun(tgt, 0.2); err != nil {
		t.Error(err)
	}
}

// TestMergeBeforeTargetStart mirrors the append pattern at the front.
func TestMergeBeforeTargetStart(t *testing.T) {
	tgt, _ := newTarget(t)
	put(t, tgt, []block.Key{100, 101, 102, 103})
	src := recSrc(1, 2, 3, 4)
	if _, err := Merge(src, 0, 1, tgt, Options{Preserve: true}); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, keysOf(t, tgt), []block.Key{1, 2, 3, 4, 100, 101, 102, 103})
	if err := checkRun(tgt, 0.2); err != nil {
		t.Error(err)
	}
}

// TestRepairCascades builds a level whose post-merge boundary repair must
// cascade across more than one pair.
func TestRepairCascades(t *testing.T) {
	dev := storage.NewMemDevice()
	l := level.New(level.Config{Device: dev, BlockCapacity: 10, Epsilon: 0.5, Capacity: 1 << 20})
	counts := []int{2, 3, 4, 10}
	k := block.Key(0)
	var metas []btree.BlockMeta
	for _, c := range counts {
		rs := make([]block.Record, c)
		for i := range rs {
			rs[i] = block.Record{Key: k}
			k++
		}
		m, err := l.WriteNew(block.New(rs))
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	l.ReplaceRange(0, 0, metas, nil)
	// Pairs (2,3) and then after combining (5,4) both violate B=10.
	repairs, err := l.RepairRange(0, l.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	if repairs < 2 {
		t.Errorf("repairs = %d, want cascade of >= 2", repairs)
	}
	if err := checkRun(l, 0.5); err != nil {
		t.Error(err)
	}
}
