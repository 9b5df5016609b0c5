package core

// The tree check: the paper's correctness constraints (Thonangi & Yang,
// ICDE 2017, Section II), defined once and applied to a level image — the
// []LevelView that publish installs for readers and levelImage builds.
// Per run it applies level.CheckRun (fences, overfull blocks, pairwise and
// level-wise waste, optionally block contents); per level and across the
// tree it checks:
//
//   - capacity labels: every run of L_i labelled K_i = K0·Γ^i;
//   - record totals: each run's cached record and tombstone counts match
//     its fences;
//   - layout: a leveled level holds exactly one run — always, even
//     mid-cascade — and a tiered level at most its run budget T
//     (steady state only; a cascade may transiently exceed it);
//   - size: S(L_i) ≤ (1+ε)·K_i·B records summed over the level's runs,
//     with mid-cascade slack (see checkImage);
//   - bottom level: no tombstones when the bottom is leveled (a tiered
//     bottom's older runs legitimately hold tombstones that shadow runs
//     below them until the level is consolidated);
//   - L0: at most K0·B records (steady state only);
//   - device: live-block accounting agrees with the image's references
//     (checkLive; live trees only).
//
// Entry points: Tree.Check (the Config.Auditor hook, the public engine's
// steady-state and restore checks), Tree.Validate (the strict form) and
// View.Validate (any published snapshot, lock-free).

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/level"
)

// AuditOptions selects the strictness of the tree check.
type AuditOptions struct {
	// MidCascade relaxes the level-size and memtable bounds to admit
	// in-flight records: an audit run between the merges of one overflow
	// cascade sees levels that are legitimately over capacity until the
	// cascade reaches them (a merge may land up to a full upstream level
	// before the target's own overflow is handled). Callers key this off
	// scheduler state (is a cascade outstanding?), not call position.
	MidCascade bool
	// L0CapacityBlocks overrides the memtable capacity the audit assumes,
	// in blocks; zero means K0. Background compaction admits writes into
	// L0 past K0 up to the stop trigger, so scheduler-keyed audits pass
	// the trigger here. A nonzero value together with MidCascade also
	// waives the per-level size bound: with writers admitted concurrently,
	// the inflow a level accumulates between its own compactions is paced
	// by backpressure, not statically bounded (the waste, pairwise, fence,
	// tombstone, and accounting constraints still hold and are checked).
	L0CapacityBlocks int
	// SkipContents skips reading data blocks, checking fence metadata
	// only. Metadata checks are O(blocks); content checks are O(records)
	// of device Peek traffic (uncounted, but real work).
	SkipContents bool
}

// Check audits the live tree under o: it captures a level image exactly as
// publish does, checks it, and checks the live-block accounting identity.
// The returned error names the first violated constraint. Writer context
// only: it reads live level state.
func (t *Tree) Check(o AuditOptions) error {
	levels := t.levelImage()
	if err := t.checkImage(levels, t.mem.Len(), o); err != nil {
		return err
	}
	return t.checkLive(levels)
}

// Validate runs the strict check — steady-state bounds and block contents
// — on the live tree. The public engine's restore check and tests call it
// between operations, never mid-cascade. It reads blocks with Peek,
// leaving the experiment counters untouched.
func (t *Tree) Validate() error { return t.Check(AuditOptions{}) }

// Validate checks the snapshot's level image under o, without any lock and
// without perturbing the I/O statistics. Live-block accounting spans state
// outside any one snapshot and is left to Tree.Check.
func (v *View) Validate(o AuditOptions) error {
	return v.tree.checkImage(v.levels, v.MemLen(), o)
}

// checkImage checks a level image of this tree, whose L0 holds mem
// records, under o.
func (t *Tree) checkImage(levels []LevelView, mem int, o AuditOptions) error {
	cfg := t.cfg
	b := cfg.BlockCapacity
	if !o.MidCascade {
		k0 := cfg.K0
		if o.L0CapacityBlocks > k0 {
			// One extra block of slack: admission checks L0's size before
			// taking the writer lock, so concurrent writers can overshoot
			// the gate by their in-flight records.
			k0 = o.L0CapacityBlocks + 1
		}
		if mem > k0*b {
			return fmt.Errorf("core: L0 holds %d records, capacity %d blocks × B = %d", mem, k0, k0*b)
		}
	}
	height := len(levels) + 1
	for _, lv := range levels {
		i := lv.Number
		tiered := t.layout.Tiered(i, height)
		maxRuns := t.layout.MaxRuns(i, height)
		if !tiered && len(lv.Runs) != 1 {
			return fmt.Errorf("core: leveled L%d holds %d sorted runs, want exactly 1", i, len(lv.Runs))
		}
		if tiered && !o.MidCascade && len(lv.Runs) > maxRuns {
			return fmt.Errorf("core: tiered L%d holds %d sorted runs, exceeding its budget T = %d",
				i, len(lv.Runs), maxRuns)
		}
		capBlocks := cfg.capacityBlocks(i)
		for ri, r := range lv.Runs {
			at := fmt.Sprintf("L%d", i)
			if len(lv.Runs) > 1 {
				at = fmt.Sprintf("L%d run %d", i, ri)
			}
			if r.Capacity != capBlocks {
				return fmt.Errorf("core: %s capacity labelled %d blocks, want K%d = K0·Γ^%d = %d",
					at, r.Capacity, i, i, capBlocks)
			}
			var peek func(int) (*block.Block, error)
			if !o.SkipContents {
				peek = func(j int) (*block.Block, error) { return t.dev.Peek(r.Metas[j].ID) }
			}
			if err := level.CheckRun(r.Metas, b, cfg.Epsilon, peek); err != nil {
				return fmt.Errorf("core: %s: %w", at, err)
			}
			records, tombs := 0, 0
			for _, m := range r.Metas {
				records += m.Count
				tombs += m.Tombstones
			}
			if records != r.Records || tombs != r.Tombstones {
				return fmt.Errorf("core: %s record totals: cached %d records / %d tombstones, fences hold %d / %d",
					at, r.Records, r.Tombstones, records, tombs)
			}
			if i == height-1 && !tiered && tombs > 0 {
				return fmt.Errorf("core: bottom level %s carries %d tombstone(s)", at, tombs)
			}
		}

		// Size bound S(Li) ≤ (1+ε)·Ki·B, summed over the level's runs.
		// Mid-cascade, a level may additionally hold what upstream merges
		// just pushed into it: the inflow before its own overflow is
		// handled is below K_{i-1}·B·Γ/(Γ−1) ≤ 2·K_{i-1}·B for Γ ≥ 2 under
		// leveling; a tiered level receives whole runs and may hold up to
		// its full budget, so the slack is T·K_{i-1}·B. Under background
		// compaction (L0CapacityBlocks set) that inflow has no static
		// bound mid-cascade — see AuditOptions — so the check is waived.
		if o.MidCascade && o.L0CapacityBlocks != 0 {
			continue
		}
		bound := int(float64(capBlocks*b) * (1 + cfg.Epsilon))
		if o.MidCascade {
			slack := 2
			if tiered {
				slack = maxRuns
			}
			bound += slack * cfg.capacityBlocks(i-1) * b
		}
		if lv.Records > bound {
			return fmt.Errorf("core: L%d holds %d records, exceeding (1+ε)·K%d·B = %d", i, lv.Records, i, bound)
		}
	}
	return nil
}

// checkLive checks the live-block accounting identity of a level image of
// the live tree: every live device block is referenced by exactly one run,
// except blocks whose free is deferred until snapshot readers release
// them — that backlog is part of the identity, not a leak.
func (t *Tree) checkLive(levels []LevelView) error {
	if err := t.reclaimError(); err != nil {
		return err
	}
	want := int64(0)
	for i := range levels {
		want += int64(levels[i].Blocks())
	}
	deferred := t.DeferredFrees()
	if got := t.dev.Counters().Live; got != want+deferred {
		return fmt.Errorf("core: device reports %d live blocks, levels reference %d (+%d deferred frees)",
			got, want, deferred)
	}
	return nil
}
