package level

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
)

// WasteFactor is the paper's level-wise waste measure (Section II-B): the
// fraction of empty record slots across blocks data blocks of capacity b
// holding records records, or 0 when there are no blocks.
func WasteFactor(blocks, records, b int) float64 {
	if blocks == 0 {
		return 0
	}
	return float64(blocks*b-records) / float64(blocks*b)
}

// wasteOK is the level-wise waste constraint: WasteFactor ≤ ε. Runs with
// fewer than two data blocks are exempt (a single block may be arbitrarily
// empty), and so are maximally packed runs (fewer empty slots than one
// block): a small run can exceed ε even when compacted — e.g. 6 records
// with B=5 pack as (5,1), waste 0.4 — and compaction cannot improve on
// maximal packing.
func wasteOK(blocks, records, b int, epsilon float64) bool {
	if blocks < 2 || blocks*b-records < b {
		return true
	}
	return WasteFactor(blocks, records, b) <= epsilon
}

// pairOK is the pairwise waste constraint (Section II-B, constraint 2):
// two consecutive data blocks holding x and y records together hold
// strictly more than B.
func pairOK(x, y, b int) bool { return x+y > b }

// CheckRun checks one frozen sorted run — the fence metadata of its data
// blocks in key order — against the paper's per-run constraints, and
// returns an error naming the first one violated:
//
//   - fences: every block non-empty with Min ≤ Max, blocks in strict key
//     order with disjoint ranges (btree.ValidateMetas), and the fence
//     search locates every block by its min and its max key (Section
//     III-C);
//   - overfull: no block holds more than B records;
//   - pairwise: any two consecutive blocks hold more than B records;
//   - level-wise waste: WasteFactor ≤ ε, with wasteOK's two exemptions;
//   - contents, when peek is non-nil: CheckBlock on every block, read by
//     position through peek (which should not count device traffic).
//
// Under leveling a level is one run, so these are the paper's per-level
// constraints; a tiered level satisfies them run by run.
func CheckRun(metas []btree.BlockMeta, b int, epsilon float64, peek func(j int) (*block.Block, error)) error {
	if err := btree.ValidateMetas(metas); err != nil {
		return fmt.Errorf("fences: %w", err)
	}
	records := 0
	for j, m := range metas {
		for _, k := range [2]block.Key{m.Min, m.Max} {
			if pos, ok := btree.FindIn(metas, k); !ok || pos != j {
				return fmt.Errorf("fence search for key %d of block %d landed at (%d, %v)", k, j, pos, ok)
			}
		}
		if m.Count > b {
			return fmt.Errorf("block %d overfull: %d records > B = %d", j, m.Count, b)
		}
		if j+1 < len(metas) && !pairOK(m.Count, metas[j+1].Count, b) {
			return fmt.Errorf("pairwise waste violated at blocks %d,%d: %d+%d ≤ B = %d",
				j, j+1, m.Count, metas[j+1].Count, b)
		}
		records += m.Count
	}
	if !wasteOK(len(metas), records, b, epsilon) {
		return fmt.Errorf("level-wise waste %.3f exceeds ε = %.3f (%d empty slots over %d blocks)",
			WasteFactor(len(metas), records, b), epsilon, len(metas)*b-records, len(metas))
	}
	if peek == nil {
		return nil
	}
	for j, m := range metas {
		blk, err := peek(j)
		if err != nil {
			return fmt.Errorf("block %d (id %d) unreadable: %w", j, m.ID, err)
		}
		if err := CheckBlock(m, blk); err != nil {
			return fmt.Errorf("block %d (id %d): %w", j, m.ID, err)
		}
	}
	return nil
}

// CheckBlock checks a stored data block against its fence metadata:
// records in strictly ascending key order, the record count, key range
// and tombstone count the fence claims, and — when the meta carries a
// Bloom filter — no false negatives: the filter admits every key of the
// block.
func CheckBlock(m btree.BlockMeta, blk *block.Block) error {
	recs := blk.Records()
	tombs := 0
	for k, r := range recs {
		if k > 0 && recs[k-1].Key >= r.Key {
			return fmt.Errorf("records out of order at %d: %d ≥ %d", k, recs[k-1].Key, r.Key)
		}
		if m.Filter != nil && !m.Filter.MayContain(r.Key) {
			return fmt.Errorf("bloom filter rejects key %d of its block", r.Key)
		}
		if r.Tombstone {
			tombs++
		}
	}
	switch {
	case len(recs) != m.Count:
		return fmt.Errorf("stale fence pointer: fence count %d, block holds %d records", m.Count, len(recs))
	case blk.MinKey() != m.Min || blk.MaxKey() != m.Max:
		return fmt.Errorf("stale fence pointer: fence range [%d,%d], block holds [%d,%d]",
			m.Min, m.Max, blk.MinKey(), blk.MaxKey())
	case tombs != m.Tombstones:
		return fmt.Errorf("stale fence pointer: fence tombstones %d, block holds %d", m.Tombstones, tombs)
	}
	return nil
}
