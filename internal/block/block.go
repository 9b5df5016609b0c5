package block

import (
	"fmt"
	"sort"
)

// Block is an immutable, key-ordered run of records: one B+tree data block
// (leaf) of a level. The zero value is an empty block.
//
// Blocks deliberately do not know their own capacity B; callers enforce it.
// This keeps a block usable across trees with different record sizes (e.g.
// in tests) and mirrors the paper's model where B is a tree-wide constant.
type Block struct {
	records []Record
}

// New returns a block holding the given records, which must already be
// sorted by key and free of duplicates. The slice is owned by the block
// afterwards; callers must not modify it.
func New(records []Record) *Block {
	return &Block{records: records}
}

// NewChecked is like New but verifies ordering and uniqueness, for use at
// trust boundaries (decoding from a device, test fixtures).
func NewChecked(records []Record) (*Block, error) {
	for i := 1; i < len(records); i++ {
		if records[i-1].Key >= records[i].Key {
			return nil, fmt.Errorf("block: records out of order at %d: %d >= %d",
				i, records[i-1].Key, records[i].Key)
		}
	}
	return &Block{records: records}, nil
}

// Len returns the number of records stored in the block.
func (b *Block) Len() int { return len(b.records) }

// Records exposes the block's records. The returned slice must be treated
// as read-only.
func (b *Block) Records() []Record { return b.records }

// MinKey returns the smallest key in the block. It panics on an empty
// block; empty blocks are never stored in a level.
func (b *Block) MinKey() Key { return b.records[0].Key }

// MaxKey returns the largest key in the block.
func (b *Block) MaxKey() Key { return b.records[len(b.records)-1].Key }

// Find returns the record with the given key, if present.
func (b *Block) Find(k Key) (Record, bool) {
	i := sort.Search(len(b.records), func(i int) bool { return b.records[i].Key >= k })
	if i < len(b.records) && b.records[i].Key == k {
		return b.records[i], true
	}
	return Record{}, false
}

// EmptySlots returns the number of unused record slots given capacity b.
func (b *Block) EmptySlots(capacity int) int {
	return capacity - len(b.records)
}

// Bytes returns the total request-byte footprint of the block's records.
func (b *Block) Bytes() int {
	n := 0
	for _, r := range b.records {
		n += r.Size()
	}
	return n
}
