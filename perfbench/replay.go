package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"lsmssd"
	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/memtable"
	"lsmssd/internal/merge"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

// The layer replays drive each internal package's exported API directly
// with the workload's own generated records and lookup keys, timing the
// calls from outside. They isolate one layer's cost per unit of work, which
// the end-to-end window mixes with every other layer's.

const (
	replayRecords = 100_000
	replayScans   = 200
	delta         = 0.07 // the engine's default partial-merge fraction δ
)

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayLayers runs every replay and returns its metrics.
func replayLayers(w workload, dir string) (map[string]float64, error) {
	puts, gets := w.sample(replayRecords)
	k0, _ := w.shardGeometry()
	m := map[string]float64{}
	replayMemtable(m, puts, k0)
	if err := replayBlocks(m, sortedBlocks(puts), gets); err != nil {
		return nil, err
	}
	if err := replayWAL(m, puts, dir); err != nil {
		return nil, err
	}
	if err := replayMerge(m, puts); err != nil {
		return nil, err
	}
	return m, nil
}

// replayMemtable keeps a memtable at the engine's L0 steady state: fill to
// K0·B records, then drain a δ·K0-block window of virtual blocks, as a
// partial L0 merge does, and refill.
func replayMemtable(m map[string]float64, puts []block.Record, k0 int) {
	t := memtable.New(1)
	full := k0 * recordsPerBlock
	take := int(delta*float64(k0) + 0.5)
	if take < 1 {
		take = 1
	}
	var putNs, vbNs, takeNs time.Duration
	var allocs uint64
	var nPut, nTake int
	for i := 0; i < len(puts); {
		a0 := allocObjects()
		start := time.Now()
		for ; i < len(puts) && t.Len() < full; i++ {
			t.Put(puts[i])
			nPut++
		}
		putNs += time.Since(start)
		allocs += allocObjects() - a0
		if t.Len() < full {
			break
		}
		start = time.Now()
		vbs := t.VirtualBlocks(recordsPerBlock)
		vbNs += time.Since(start)
		first := (nTake * 7919) % (len(vbs) - take + 1)
		start = time.Now()
		t.TakeRange(vbs[first].Min, vbs[first+take-1].Max)
		takeNs += time.Since(start)
		nTake++
	}
	m["memtable.put_ns"] = ratio(float64(putNs), float64(nPut))
	m["memtable.put_allocs"] = ratio(float64(allocs), float64(nPut))
	m["memtable.virtual_blocks_ns"] = ratio(float64(vbNs), float64(nTake))
	m["memtable.take_range_ns"] = ratio(float64(takeNs), float64(nTake))
}

// sortedBlocks packs the records, deduplicated and sorted, into full
// blocks of B records, as a merge writes them.
func sortedBlocks(puts []block.Record) []*block.Block {
	recs := append([]block.Record(nil), puts...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	out := recs[:0]
	for _, r := range recs {
		if len(out) > 0 && out[len(out)-1].Key == r.Key {
			out[len(out)-1] = r
			continue
		}
		out = append(out, r)
	}
	var blocks []*block.Block
	for i := 0; i+recordsPerBlock <= len(out); i += recordsPerBlock {
		blocks = append(blocks, block.New(out[i:i+recordsPerBlock]))
	}
	return blocks
}

// replayBlocks times block encode/decode and Bloom filter probes.
func replayBlocks(m map[string]float64, blocks []*block.Block, gets []block.Key) error {
	buf := make([]byte, blockSize)
	enc := make([][]byte, len(blocks))
	start := time.Now()
	for i, b := range blocks {
		if err := b.Encode(buf, blockSize); err != nil {
			return fmt.Errorf("block replay: %w", err)
		}
		enc[i] = append([]byte(nil), buf...)
	}
	m["block.encode_ns"] = ratio(float64(time.Since(start)), float64(len(blocks)))
	start = time.Now()
	for _, e := range enc {
		if _, err := block.Decode(e); err != nil {
			return fmt.Errorf("block replay: %w", err)
		}
	}
	m["block.decode_ns"] = ratio(float64(time.Since(start)), float64(len(enc)))

	filters := make([]*bloom.Filter, len(blocks))
	keys := make([]block.Key, recordsPerBlock)
	for i, b := range blocks {
		for j, r := range b.Records() {
			keys[j] = r.Key
		}
		filters[i] = bloom.NewFilter(keys[:b.Len()], 10)
	}
	hits := 0
	start = time.Now()
	for j, k := range gets {
		if filters[j%len(filters)].MayContain(k) {
			hits++
		}
	}
	m["bloom.probe_ns"] = ratio(float64(time.Since(start)), float64(len(gets)))
	sink = hits
	return nil
}

// sink keeps replay results observable so the compiler cannot drop the
// timed calls.
var sink int

// replayWAL appends each put as its own frame, as a Put does, under the
// mixed workload's sync policy.
func replayWAL(m map[string]float64, puts []block.Record, dir string) error {
	base := filepath.Join(dir, "replay.wal")
	l, err := wal.Open(base, 1, wal.Options{Policy: wal.SyncInterval, Interval: 100 * time.Millisecond})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	n := len(puts) / 4
	ops := make([]wal.Op, 1)
	start := time.Now()
	for _, r := range puts[:n] {
		ops[0] = wal.Op{Key: uint64(r.Key), Value: r.Payload}
		if _, _, err := l.Append(ops); err != nil {
			return fmt.Errorf("wal replay append: %w", err)
		}
	}
	m["wal.append_ns"] = ratio(float64(time.Since(start)), float64(n))
	if err := l.Close(); err != nil {
		return fmt.Errorf("wal replay close: %w", err)
	}
	files, err := wal.SegmentFiles(base)
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// replayMerge merges one δ-sized window of source blocks into a target
// level ten times denser (Γ = 10), once preserving blocks and once
// rewriting everything, on identical freshly built inputs.
func replayMerge(m map[string]float64, puts []block.Record) error {
	blocks := sortedBlocks(puts)
	var tgtBlocks, srcRecs []*block.Block
	for i, b := range blocks {
		if i%11 == 0 {
			srcRecs = append(srcRecs, b)
		} else {
			tgtBlocks = append(tgtBlocks, b)
		}
	}
	var src []block.Record
	for _, b := range srcRecs {
		src = append(src, b.Records()...)
	}
	sort.Slice(src, func(i, j int) bool { return src[i].Key < src[j].Key })
	x := int(delta*float64(len(srcRecs)) + 0.5)
	if x < 1 {
		x = 1
	}
	for _, preserve := range []bool{true, false} {
		var total time.Duration
		var n int
		for rep := 0; rep < 5; rep++ {
			tgt, err := buildLevel(tgtBlocks)
			if err != nil {
				return err
			}
			rs := merge.NewRecordSource(src, recordsPerBlock)
			from := (rep * 3) % (rs.NumBlocks() - x + 1)
			start := time.Now()
			res, err := merge.Merge(rs, from, from+x, tgt, merge.Options{Preserve: preserve})
			total += time.Since(start)
			if err != nil {
				return fmt.Errorf("merge replay: %w", err)
			}
			n += x + res.YBlocks
		}
		name := "merge.rewrite_ns_per_block"
		if preserve {
			name = "merge.preserve_ns_per_block"
		}
		m[name] = ratio(float64(total), float64(n))
	}
	return nil
}

func buildLevel(blocks []*block.Block) (*level.Level, error) {
	l := level.New(level.Config{Device: storage.NewMemDevice(), BlockCapacity: recordsPerBlock, Epsilon: 0.2, Capacity: 1 << 30})
	metas := make([]btree.BlockMeta, 0, len(blocks))
	for _, b := range blocks {
		meta, err := l.WriteNew(block.New(b.Records()))
		if err != nil {
			return nil, fmt.Errorf("merge replay level: %w", err)
		}
		metas = append(metas, meta)
	}
	return l, l.ReplaceRange(0, 0, metas, nil)
}

// replayIterator times Iterator.Next over short scans of the live store,
// starting at the workload's own lookup keys.
func replayIterator(db *lsmssd.DB, gets []block.Key) (float64, error) {
	var total time.Duration
	var n int
	for j := 0; j < replayScans; j++ {
		it, err := db.NewIterator(uint64(gets[j*97%len(gets)]), ^uint64(0))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for c := 0; c < mixedScanLen && it.Next(); c++ {
			n++
		}
		total += time.Since(start)
		if err := it.Close(); err != nil {
			return 0, err
		}
	}
	return ratio(float64(total), float64(n)), nil
}
