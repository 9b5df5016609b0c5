package level

import "lsmssd/internal/block"

// Get returns the record stored for k, if present in this level. It costs
// at most one block read (internal index nodes are memory-resident).
func (l *Level) Get(k block.Key) (block.Record, bool, error) {
	i, ok := l.idx.Find(k)
	if !ok {
		return block.Record{}, false, nil
	}
	if f := l.idx.Meta(i).Filter; f != nil && !f.MayContain(k) {
		return block.Record{}, false, nil
	}
	blk, err := l.ReadAt(i)
	if err != nil {
		return block.Record{}, false, err
	}
	r, ok := blk.Find(k)
	return r, ok, nil
}

// Ascend calls fn for every record with key in [lo, hi] in key order,
// stopping early if fn returns false. It reads each overlapping block once.
func (l *Level) Ascend(lo, hi block.Key, fn func(block.Record) bool) error {
	start, end := l.idx.Overlap(lo, hi)
	for i := start; i < end; i++ {
		blk, err := l.ReadAt(i)
		if err != nil {
			return err
		}
		for _, r := range blk.Records() {
			if r.Key < lo {
				continue
			}
			if r.Key > hi {
				return nil
			}
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}
