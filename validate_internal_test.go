package lsmssd

import (
	"strings"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
)

// TestValidateReportsBlockContents corrupts one block of a shard's L1 so
// that only its contents disagree with a well-formed fence, and asserts
// DB.Validate names the violated constraint. Every corruption passes each
// fence-metadata check; only the per-block content check sees it.
func TestValidateReportsBlockContents(t *testing.T) {
	cases := []struct {
		name string
		recs []block.Record
		edit func(m *btree.BlockMeta)
		want string
	}{
		{
			name: "stale tombstone count",
			recs: []block.Record{{Key: 1, Tombstone: true}, {Key: 2, Payload: []byte{1}}, {Key: 3, Payload: []byte{1}}},
			edit: func(m *btree.BlockMeta) { m.Tombstones = 0 }, // nor does the bottom-tombstone check fire
			want: "fence tombstones",
		},
		{
			name: "out-of-order records",
			recs: []block.Record{{Key: 5, Payload: []byte{1}}, {Key: 3, Payload: []byte{1}}, {Key: 7, Payload: []byte{1}}},
			edit: func(*btree.BlockMeta) {},
			want: "out of order",
		},
		{
			name: "bloom filter false negative",
			recs: []block.Record{{Key: 1, Payload: []byte{1}}, {Key: 2, Payload: []byte{1}}, {Key: 3, Payload: []byte{1}}},
			edit: func(m *btree.BlockMeta) { m.Filter = bloom.NewFilter([]block.Key{99}, 10) },
			want: "bloom filter rejects",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{RecordsPerBlock: 8, MemtableBlocks: 2, Gamma: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for k := uint64(0); k < 100; k++ {
				if err := db.Put(k, []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Validate(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			tr := db.shards[0].tree
			l1 := tr.Level(1)
			m, err := l1.WriteNew(block.New(tc.recs))
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&m)
			if err := l1.ReplaceRange(0, l1.Blocks(), []btree.BlockMeta{m}, nil); err != nil {
				t.Fatal(err)
			}
			tr.ResetStats() // publishes the corrupted level to readers
			err = db.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DB.Validate = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
