package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
)

func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]block.Key, 500)
	for i := range keys {
		keys[i] = block.Key(rng.Uint64())
	}
	f := NewFilter(keys, 10)
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	present := map[block.Key]bool{}
	keys := make([]block.Key, 1000)
	for i := range keys {
		keys[i] = block.Key(rng.Uint64())
		present[keys[i]] = true
	}
	f := NewFilter(keys, 10)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		k := block.Key(rng.Uint64())
		if present[k] {
			continue
		}
		if f.MayContain(k) {
			fp++
		}
	}
	// 10 bits/key gives ~1% theoretical; allow generous slack.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %.3f too high for 10 bits/key", rate)
	}
}

func TestEmptyFilter(t *testing.T) {
	f := NewFilter(nil, 10)
	if f.MayContain(42) {
		t.Error("empty filter claims membership")
	}
	if f.SizeBits() < 64 {
		t.Errorf("SizeBits = %d, want >= 64", f.SizeBits())
	}
}

func TestForBlock(t *testing.T) {
	b := block.New([]block.Record{{Key: 1}, {Key: 5}, {Key: 9}})
	if ForBlock(b, 0) != nil {
		t.Error("filters off must build no filter")
	}
	f := ForBlock(b, 10)
	for _, r := range b.Records() {
		if !f.MayContain(r.Key) {
			t.Errorf("block key %d reported absent", r.Key)
		}
	}
}

// Property: filters never produce false negatives for any key set.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(raw []uint32, bpkRaw uint8) bool {
		bpk := float64(bpkRaw%12) + 2
		keys := make([]block.Key, len(raw))
		for i, v := range raw {
			keys[i] = block.Key(v)
		}
		filter := NewFilter(keys, bpk)
		for _, k := range keys {
			if !filter.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
