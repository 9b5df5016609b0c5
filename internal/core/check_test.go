package core

import (
	"math/rand"
	"strings"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// checkConfig: B=10, K0=1, Γ=4 → K1 = 4 blocks, strict L1 size bound
// (1+ε)·K1·B = 48 records.
func checkConfig(p policy.Policy) Config {
	return Config{
		Device:        storage.NewMemDevice(),
		Policy:        p,
		BlockCapacity: 10,
		K0:            1,
		Gamma:         4,
		Epsilon:       0.2,
		Seed:          1,
	}
}

// blockOf builds a data block of n records with consecutive keys starting
// at start, the first tombstones of them tombstones.
func blockOf(start block.Key, n, tombstones int) *block.Block {
	recs := make([]block.Record, n)
	for i := range recs {
		recs[i] = block.Record{Key: start + block.Key(i)}
		if i < tombstones {
			recs[i].Tombstone = true
		} else {
			recs[i].Payload = []byte{0xab}
		}
	}
	return block.New(recs)
}

// setBlocks replaces l's contents with the given blocks, fenced by metas
// computed from them and then passed through edit.
func setBlocks(t *testing.T, l *level.Level, edit func(metas []btree.BlockMeta), blocks ...*block.Block) {
	t.Helper()
	metas := make([]btree.BlockMeta, 0, len(blocks))
	for _, b := range blocks {
		m, err := l.WriteNew(b)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	if edit != nil {
		edit(metas)
	}
	if err := l.ReplaceRange(0, l.Blocks(), metas, nil); err != nil {
		t.Fatal(err)
	}
}

// setLevel replaces l's contents with blocks of the given record counts,
// keys ascending and disjoint across blocks.
func setLevel(t *testing.T, l *level.Level, counts ...int) {
	t.Helper()
	blocks := make([]*block.Block, 0, len(counts))
	key := block.Key(1)
	for _, n := range counts {
		blocks = append(blocks, blockOf(key, n, 0))
		key += block.Key(n) + 1 // gap keeps ranges disjoint
	}
	setBlocks(t, l, nil, blocks...)
}

// TestCorruptedTreeDetected seeds one violation per constraint the tree
// check enforces and asserts the strict check names it.
func TestCorruptedTreeDetected(t *testing.T) {
	tiering := policy.NewFull(true).WithLayout(policy.Layout{Kind: policy.Tiering, TierRuns: 2})
	cases := []struct {
		name    string
		policy  policy.Policy // nil: leveling with Full
		corrupt func(t *testing.T, tr *Tree)
		want    string // error substring naming the constraint
	}{
		{
			name:    "overfull block",
			corrupt: func(t *testing.T, tr *Tree) { setLevel(t, tr.Level(1), 11, 10) },
			want:    "overfull",
		},
		{
			name: "pairwise violation",
			// middle pair holds 4+4 = 8 ≤ B=10.
			corrupt: func(t *testing.T, tr *Tree) { setLevel(t, tr.Level(1), 10, 4, 4, 10) },
			want:    "pairwise waste violated",
		},
		{
			name: "waste over epsilon",
			// 3 blocks × 6/10 records: waste 0.4 > ε=0.2, pairwise 12 > 10 fine.
			corrupt: func(t *testing.T, tr *Tree) { setLevel(t, tr.Level(1), 6, 6, 6) },
			want:    "level-wise waste",
		},
		{
			name: "overlapping key ranges",
			corrupt: func(t *testing.T, tr *Tree) {
				setBlocks(t, tr.Level(1), nil, blockOf(1, 10, 0), blockOf(5, 10, 0)) // [1,10] and [5,14]
			},
			want: "overlap",
		},
		{
			name: "stale fence pointer",
			corrupt: func(t *testing.T, tr *Tree) {
				setBlocks(t, tr.Level(1), func(m []btree.BlockMeta) { m[0].Count-- },
					blockOf(1, 10, 0), blockOf(20, 10, 0))
			},
			want: "fence count",
		},
		{
			name: "stale fence range",
			corrupt: func(t *testing.T, tr *Tree) {
				setBlocks(t, tr.Level(1), func(m []btree.BlockMeta) { m[0].Max++ },
					blockOf(1, 10, 0), blockOf(20, 10, 0))
			},
			want: "fence range",
		},
		{
			name: "stale tombstone count",
			// The fence claims no tombstones, so even the bottom-level
			// tombstone check, which reads fences, passes.
			corrupt: func(t *testing.T, tr *Tree) {
				setBlocks(t, tr.Level(1), func(m []btree.BlockMeta) { m[0].Tombstones = 0 },
					blockOf(1, 10, 2), blockOf(20, 10, 0))
			},
			want: "fence tombstones",
		},
		{
			name: "out-of-order records",
			// The fence matches the block's count and end keys.
			corrupt: func(t *testing.T, tr *Tree) {
				setBlocks(t, tr.Level(1), nil, block.New([]block.Record{
					{Key: 5, Payload: []byte{1}}, {Key: 3, Payload: []byte{1}}, {Key: 7, Payload: []byte{1}},
				}))
			},
			want: "out of order",
		},
		{
			name: "leveled level holding 2 runs",
			corrupt: func(t *testing.T, tr *Tree) {
				setLevel(t, tr.Level(1), 10, 10)
				run := tr.newLevel(1)
				setBlocks(t, run, nil, blockOf(100, 10, 0))
				tr.slots[0].runs = append(tr.slots[0].runs, run)
			},
			want: "want exactly 1",
		},
		{
			name:   "tiered level over its budget",
			policy: tiering,
			corrupt: func(t *testing.T, tr *Tree) {
				for i := 0; i < 3; i++ {
					run := tr.newLevel(1)
					setBlocks(t, run, nil, blockOf(block.Key(100*i+1), 10, 0))
					tr.slots[0].prepend(run)
				}
			},
			want: "exceeding its budget T = 2",
		},
		{
			name: "size bound exceeded",
			// 5 full blocks = 50 records > (1+ε)·K1·B = 48, waste 0.
			corrupt: func(t *testing.T, tr *Tree) { setLevel(t, tr.Level(1), 10, 10, 10, 10, 10) },
			want:    "exceeding (1+ε)·K1·B",
		},
		{
			name: "capacity label drift",
			corrupt: func(t *testing.T, tr *Tree) {
				setLevel(t, tr.Level(1), 10, 10)
				tr.Level(1).SetCapacity(5) // K1 must be K0·Γ = 4
			},
			want: "capacity labelled",
		},
		{
			name: "tombstone in bottom level",
			corrupt: func(t *testing.T, tr *Tree) {
				setBlocks(t, tr.Level(1), nil, blockOf(1, 10, 1)) // the only storage level is the bottom
			},
			want: "bottom level L1 carries 1 tombstone",
		},
		{
			name: "memtable over capacity",
			corrupt: func(t *testing.T, tr *Tree) {
				// Bypass the cascade: K0·B+1 records in L0.
				for i := 0; i <= 10; i++ {
					if err := tr.Put(block.Key(i), []byte{1}); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: "L0 holds",
		},
		{
			name: "device accounting drift",
			corrupt: func(t *testing.T, tr *Tree) {
				setLevel(t, tr.Level(1), 10, 10)
				dev := tr.Device()
				id := dev.Alloc() // a leaked block no level references
				if err := dev.Write(id, blockOf(1000, 10, 0)); err != nil {
					t.Fatal(err)
				}
			},
			want: "live blocks",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.policy
			if p == nil {
				p = policy.NewFull(true)
			}
			tr, err := New(checkConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("fresh tree failed the check: %v", err)
			}
			tc.corrupt(t, tr)
			err = tr.Validate()
			if err == nil {
				t.Fatalf("tree check passed a tree corrupted with %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("tree check error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCleanTreePasses is the positive control: a tree built through the
// real merge machinery passes the strict check, contents included, and
// its published view passes the snapshot check.
func TestCleanTreePasses(t *testing.T) {
	tr, err := New(checkConfig(policy.NewFull(true)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := putC(tr, block.Key(i%113), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("clean tree failed the check: %v", err)
	}
	v, err := tr.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if err := v.Validate(AuditOptions{}); err != nil {
		t.Fatalf("clean view failed the check: %v", err)
	}
}

// TestPoliciesUnderAudit drives every merge policy with the tree check
// installed as the auditor after each merge and level growth, then asserts
// the strict steady-state check at the end. A policy bug that drifts a
// waste constraint (the silent failure mode of compaction bugs) fails here
// at the first violating merge, not at the end of the run.
func TestPoliciesUnderAudit(t *testing.T) {
	policies := map[string]func() policy.Policy{
		"Full":       func() policy.Policy { return policy.NewFull(true) },
		"RR":         func() policy.Policy { return policy.NewRR(0.25, true) },
		"ChooseBest": func() policy.Policy { return policy.NewChooseBest(0.25, true) },
		"TestMixed":  func() policy.Policy { return policy.NewTestMixed(0.25, true) },
		"Mixed": func() policy.Policy {
			return policy.NewMixed(0.25, true, map[int]float64{2: 0.5}, true)
		},
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			audits := 0
			cfg := Config{
				Device:        storage.NewMemDevice(),
				Policy:        mk(),
				BlockCapacity: 4,
				K0:            2,
				Gamma:         4,
				Epsilon:       0.2,
				Seed:          1,
				Auditor: func(tr *Tree) error {
					audits++
					return tr.Check(AuditOptions{MidCascade: true})
				},
			}
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				k := block.Key(rng.Intn(3000))
				if rng.Intn(4) == 0 {
					if err := delC(tr, k); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				} else if err := putC(tr, k, []byte{byte(i), byte(i >> 8)}); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if audits == 0 {
				t.Fatal("no merges were audited")
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("steady-state check after %d per-merge audits: %v", audits, err)
			}
		})
	}
}
