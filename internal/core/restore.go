package core

import (
	"fmt"
	"slices"

	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
)

// ExportedState is the tree's reconstructible in-memory state: the block
// metadata of every sorted run of every level (the cached internal B+tree
// nodes) plus the memtable contents. Data blocks themselves live on the
// device. Runs[i] lists level L_{i+1}'s runs newest first; under leveling
// every level has exactly one.
type ExportedState struct {
	Runs     [][][]btree.BlockMeta
	Memtable []block.Record
}

// Export captures the state needed to Restore this tree over the same
// device contents later.
func (t *Tree) Export() ExportedState {
	st := ExportedState{Memtable: t.mem.All()}
	for _, s := range t.slots {
		runs := make([][]btree.BlockMeta, 0, len(s.runs))
		for _, r := range s.runs {
			metas := make([]btree.BlockMeta, len(r.Index().All()))
			copy(metas, r.Index().All())
			runs = append(runs, metas)
		}
		st.Runs = append(st.Runs, runs)
	}
	return st
}

// Restore builds a tree over an existing device from exported state. The
// configuration must match the one the state was exported under (block
// capacity, K0, Γ, ε, layout); the device must already hold every
// referenced block. Bloom filters are not part of the state: when
// BloomBitsPerKey is on, Restore rebuilds each block's filter from the
// block's contents (see withFilters).
func Restore(cfg Config, st ExportedState) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Runs) == 0 {
		return nil, fmt.Errorf("core: restore state has no levels")
	}
	// New starts with one empty level; rebuild the full stack.
	for len(t.slots) < len(st.Runs) {
		t.slots = append(t.slots, newSlot(t.newLevel(len(t.slots)+1)))
	}
	for i, runs := range st.Runs {
		if len(runs) == 0 {
			return nil, fmt.Errorf("core: restore L%d has no runs", i+1)
		}
		if !t.tiered(i+1) && len(runs) > 1 {
			return nil, fmt.Errorf("core: restore L%d has %d runs but the layout levels it", i+1, len(runs))
		}
		s := t.slots[i]
		for j, metas := range runs {
			if err := btree.ValidateMetas(metas); err != nil {
				return nil, fmt.Errorf("core: restore L%d run %d: %w", i+1, j, err)
			}
			if t.cfg.BloomBitsPerKey > 0 {
				metas = t.withFilters(metas)
			}
			if j > 0 {
				s.runs = append(s.runs, t.newLevel(i+1))
			}
			if err := s.runs[j].ReplaceRange(0, 0, metas, nil); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range st.Memtable {
		t.mem.Put(r)
	}
	// Complete any overflow cascade the shutdown interrupted: a Close can
	// land mid-cascade (the background scheduler stops after its current
	// step), so the manifest may describe levels legitimately over
	// capacity. Reopening restores the steady-state bounds before the
	// first request.
	if err := t.RunCascade(); err != nil {
		return nil, err
	}
	t.publish() // expose the restored levels and memtable to readers
	return t, nil
}

// withFilters returns a copy of metas carrying each block's Bloom filter,
// rebuilt from the block's contents. Blocks are read with Peek, so the
// rebuild counts no device traffic and does not fill the buffer cache. A
// block that cannot be read keeps a nil filter: lookups then read it and
// surface the fault to the quarantine path instead of failing the restore.
func (t *Tree) withFilters(metas []btree.BlockMeta) []btree.BlockMeta {
	out := slices.Clone(metas)
	for i := range out {
		out[i].Filter = nil
		if blk, err := t.dev.Peek(out[i].ID); err == nil {
			out[i].Filter = bloom.ForBlock(blk, t.cfg.BloomBitsPerKey)
		}
	}
	return out
}
