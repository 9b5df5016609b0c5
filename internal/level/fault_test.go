package level

import (
	"errors"
	"strings"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/storage"
)

// failAllReads arms the shared fault device (internal/faultdev) so every
// read from now on fails, for error-path coverage.
func failAllReads(d *faultdev.Device) {
	d.FailReadAt(d.Reads() + 1)
}

func TestRepairPairReadError(t *testing.T) {
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.5, Capacity: 100})
	load(t, l, 2, 2)
	failAllReads(dev)
	if _, err := l.RepairPair(0); !errors.Is(err, faultdev.ErrInjected) {
		t.Errorf("RepairPair error = %v, want injected fault", err)
	}
}

func TestCompactReadError(t *testing.T) {
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 100})
	load(t, l, 3, 3, 3)
	failAllReads(dev)
	if _, err := l.Compact(); !errors.Is(err, faultdev.ErrInjected) {
		t.Errorf("Compact error = %v, want injected fault", err)
	}
}

func TestGetAndAscendReadError(t *testing.T) {
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 100})
	load(t, l, 4, 4)
	failAllReads(dev)
	if _, _, err := l.Get(0); !errors.Is(err, faultdev.ErrInjected) {
		t.Errorf("Get error = %v", err)
	}
	if err := l.Ascend(0, 100, func(block.Record) bool { return true }); !errors.Is(err, faultdev.ErrInjected) {
		t.Errorf("Ascend error = %v", err)
	}
}

func TestReplaceRangeDoubleFreeError(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 100})
	load(t, l, 4, 4)
	id := l.Index().Meta(0).ID
	if err := dev.Free(id); err != nil {
		t.Fatal(err)
	}
	// The level now references a freed block; removing it must surface
	// the double free instead of silently continuing.
	if err := l.ReplaceRange(0, 1, nil, nil); err == nil {
		t.Error("double free not surfaced")
	}
}

func TestValidateContentsDetectsMetaDrift(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 100})
	load(t, l, 4, 4)
	// Corrupt the cached metadata: claim a different max key.
	m := l.Index().Meta(0)
	m.Max += 1
	l.Index().ReplaceRange(0, 1, []btree.BlockMeta{m})
	if err := check(l); err == nil || !strings.Contains(err.Error(), "stale fence pointer") {
		t.Errorf("metadata drift: %v", err)
	}
}

func TestRepairRangeOutOfBoundsIsSafe(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 100})
	load(t, l, 4, 4)
	for _, bounds := range [][2]int{{-5, -1}, {10, 20}, {0, 100}} {
		if _, err := l.RepairRange(bounds[0], bounds[1]); err != nil {
			t.Errorf("RepairRange(%v) errored: %v", bounds, err)
		}
	}
	if err := check(l); err != nil {
		t.Fatal(err)
	}
}
