package lsmssd

import (
	"time"

	"lsmssd/internal/health"
	"lsmssd/internal/obs"
)

// Stats is a point-in-time accounting snapshot of a DB.
//
// BlocksWritten is the paper's primary cost metric: the number of data
// blocks written to the device since Open (or the last ResetIOStats). On
// SSDs writes dominate cost and wear, so merge policies are compared by
// this number, typically normalized per megabyte of requests.
//
// The embedded ShardStats is the aggregate across shards — counters sum,
// Height is the maximum, per-level rows with the same level number
// combine, Health is the worst shard's — and Shards carries the per-shard
// breakdown. With the default single shard the aggregate is exactly the
// one shard's record, unchanged from the unsharded engine.
//
// Reset semantics: every cumulative counter in Stats — device traffic,
// request accounting, merge counts, the per-level write series, cache and
// Bloom statistics, and Latencies — covers the same window, from Open or
// the last ResetIOStats to now. ResetIOStats zeroes them all together, so
// cross-counter identities (per-level writes summing to BlocksWritten,
// hit rates, writes per request) hold within any window. Structural
// fields (Height, Records, MemtableRecords, LiveBlocks, per-level shapes)
// describe the present and are never reset.
type Stats struct {
	ShardStats

	// Shards holds the per-shard breakdown, one entry per shard in shard
	// order — always populated, a single entry for an unsharded DB.
	Shards []ShardStats `json:"shards"`
}

// ShardStats is one shard's accounting record, scoped to the shard's own
// tree, device, scheduler, and write-ahead log. Stats embeds the same
// record as the aggregate over all shards. It is the single definition
// behind Stats, the /metrics families, and the /debug/lsm dump.
type ShardStats struct {
	// Shard is the shard index (keys route here when key & (Shards-1) ==
	// Shard); zero in the aggregate.
	Shard int `json:"shard"`

	// Device traffic.
	BlocksWritten int64 `json:"blocks_written"`
	BlocksRead    int64 `json:"blocks_read"`
	LiveBlocks    int64 `json:"live_blocks"`

	// Request accounting.
	Requests     int64 `json:"requests"`
	Inserts      int64 `json:"inserts"`
	Deletes      int64 `json:"deletes"`
	Lookups      int64 `json:"lookups"`
	Scans        int64 `json:"scans"`
	RequestBytes int64 `json:"request_bytes"`

	// Structure.
	Height          int `json:"height"`  // tallest shard's height in the aggregate
	Records         int `json:"records"` // records stored, including shadowed versions and tombstones
	MemtableRecords int `json:"memtable_records"`

	// Merge accounting.
	Merges     int64        `json:"merges"`
	FullMerges int64        `json:"full_merges"`
	Levels     []LevelStats `json:"levels"`

	// Cache and Bloom effectiveness (zero when the feature is off).
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	BloomSkipped int64 `json:"bloom_skipped"`
	BloomPassed  int64 `json:"bloom_passed"`

	// Latencies summarizes the per-operation latency histograms, one entry
	// per operation that recorded at least one observation. Empty unless
	// Options.Metrics (or MetricsAddr, which implies it) enabled latency
	// recording. Point operations are timed against the owning shard;
	// multi-shard ops (Scan) are timed once at the router, so only the
	// aggregate carries them. The aggregate entries merge the router's
	// and every shard's histograms.
	Latencies []LatencyStats `json:"latencies,omitempty"`

	// Compaction reports the merge scheduler's state and write-stall
	// accounting; its counters participate in the uniform reset window.
	Compaction CompactionStats `json:"compaction"`

	// WAL reports write-ahead log traffic and the recovery Open performed,
	// if any; in the aggregate LastSeq is the sum of the per-shard
	// sequences (the total number of frames ever logged). Zero value when
	// Options.WAL is disabled. The traffic counters (Appends through
	// Rotations) participate in the uniform reset window; Segments,
	// LastSeq, and Recovery describe the present.
	WAL WALStats `json:"wal"`

	// Health is the fault-domain state ("healthy", "degraded",
	// "read-only", "failed"); HealthCause tags the last transition (""
	// while healthy since Open). The aggregate carries the worst shard's
	// pair. DB.Health has the full report with quarantined-block details.
	Health      string `json:"health"`
	HealthCause string `json:"health_cause,omitempty"`
	// Quarantined counts corrupt blocks currently quarantined.
	Quarantined int `json:"quarantined_blocks"`
	// RetriedReads counts device reads that needed at least one retry;
	// RetriesExhausted counts reads that failed even after the full
	// backoff schedule (each demotes the shard to Degraded).
	RetriedReads     int64 `json:"retried_reads"`
	RetriesExhausted int64 `json:"retries_exhausted"`
	// Scrub accounting (zero unless Options.ScrubInterval is set):
	// passes completed, blocks verified, corruption found, and blocks
	// repaired from a surviving cached copy.
	ScrubPasses   int64 `json:"scrub_passes"`
	ScrubChecked  int64 `json:"scrub_checked"`
	ScrubCorrupt  int64 `json:"scrub_corrupt"`
	ScrubRepaired int64 `json:"scrub_repaired"`

	state health.State // Health as an ordered value
}

// add folds o into the aggregate s: counters and sizes sum, Height is
// the maximum, Health is the worse of the two, and the WAL and recovery
// flags are set if either side's is. Levels and Latencies need every
// shard at once; Stats merges them separately.
func (s *ShardStats) add(o *ShardStats) {
	s.BlocksWritten += o.BlocksWritten
	s.BlocksRead += o.BlocksRead
	s.LiveBlocks += o.LiveBlocks
	s.Requests += o.Requests
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Lookups += o.Lookups
	s.Scans += o.Scans
	s.RequestBytes += o.RequestBytes
	s.Height = max(s.Height, o.Height)
	s.Records += o.Records
	s.MemtableRecords += o.MemtableRecords
	s.Merges += o.Merges
	s.FullMerges += o.FullMerges
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.BloomSkipped += o.BloomSkipped
	s.BloomPassed += o.BloomPassed

	c, oc := &s.Compaction, &o.Compaction
	c.Mode = oc.Mode // every shard runs the same mode
	c.QueueDepth += oc.QueueDepth
	c.L0Blocks += oc.L0Blocks
	c.Steps += oc.Steps
	c.Slowdowns += oc.Slowdowns
	c.Stops += oc.Stops
	c.SlowdownTime += oc.SlowdownTime
	c.StopTime += oc.StopTime

	w, ow := &s.WAL, &o.WAL
	w.Enabled = w.Enabled || ow.Enabled
	w.Appends += ow.Appends
	w.Ops += ow.Ops
	w.Bytes += ow.Bytes
	w.Syncs += ow.Syncs
	w.Rotations += ow.Rotations
	w.Segments += ow.Segments
	w.LastSeq += ow.LastSeq
	r, or := &w.Recovery, &ow.Recovery
	r.Recovered = r.Recovered || or.Recovered
	r.Segments += or.Segments
	r.Frames += or.Frames
	r.Ops += or.Ops
	r.TornBytes += or.TornBytes

	if s.Health == "" || o.state > s.state {
		s.state, s.Health, s.HealthCause = o.state, o.Health, o.HealthCause
	}
	s.Quarantined += o.Quarantined
	s.RetriedReads += o.RetriedReads
	s.RetriesExhausted += o.RetriesExhausted
	s.ScrubPasses += o.ScrubPasses
	s.ScrubChecked += o.ScrubChecked
	s.ScrubCorrupt += o.ScrubCorrupt
	s.ScrubRepaired += o.ScrubRepaired
}

// WALStats describes the write-ahead log (see Options.WAL).
type WALStats struct {
	Enabled   bool
	Appends   int64  // frames appended (one per Put/Delete, one per touched shard per Apply)
	Ops       int64  // operations inside appended frames
	Bytes     int64  // frame bytes written, headers included
	Syncs     int64  // fsyncs issued by the sync policy or Checkpoint
	Rotations int64  // segments sealed (each triggers a checkpoint)
	Segments  int    // segment files currently on disk
	LastSeq   uint64 // sequence of the newest logged frame (summed across shards)

	// Recovery is what Open's replay did for this DB instance; it never
	// changes afterwards and does not reset.
	Recovery WALRecoveryStats
}

// WALRecoveryStats summarizes the crash recovery Open performed: the WAL
// frames it replayed over the checkpoint manifests and any torn tails it
// truncated. Recovered is false when every shard's log was already empty
// beyond its checkpoint (a clean shutdown).
type WALRecoveryStats struct {
	Recovered bool
	Segments  int   // segment files scanned
	Frames    int   // frames replayed
	Ops       int   // operations re-applied
	TornBytes int64 // bytes truncated from the torn tail
}

// CompactionStats describes the compaction scheduler (see
// Options.CompactionMode); on a sharded DB the counters sum over the
// per-shard schedulers. In sync mode only Mode is meaningful: the cascade
// completes inside each mutating call, so the queue is always empty and
// no write ever stalls.
type CompactionStats struct {
	Mode       string // "sync" or "background"
	QueueDepth int    // overflowing merge sources awaiting background work
	L0Blocks   int    // L0 size at the last scheduler refresh, in blocks
	Steps      int64  // cascade steps executed by the background scheduler
	Slowdowns  int64  // writes that paid the pacing sleep (SlowdownTrigger)
	Stops      int64  // writes that blocked on the hard gate (StopTrigger)
	// SlowdownTime and StopTime are the cumulative durations writes spent
	// in each kind of stall.
	SlowdownTime time.Duration
	StopTime     time.Duration
}

// LatencyStats summarizes one operation's latency histogram over the
// current measurement window. Quantiles are upper bounds from log-spaced
// buckets (within a factor of two of the true value).
type LatencyStats struct {
	Op    string // "get", "put", "delete", "scan", "merge"
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// LevelStats describes one storage level. In the aggregate view, rows
// with the same level number across shards combine: counts sum,
// WasteFactor is the block-weighted mean, and Runs is the maximum across
// shards (the read fan-out a point lookup can face at this level).
type LevelStats struct {
	Level          int     `json:"level"` // 1-based level number
	Runs           int     `json:"runs"`  // sorted runs in the level (always 1 under Leveling)
	Blocks         int     `json:"blocks"`
	Records        int     `json:"records"`
	CapacityBlocks int     `json:"capacity_blocks"`
	WasteFactor    float64 `json:"waste_factor"`
	BlocksWritten  int64   `json:"blocks_written"` // cumulative writes into this level
	Compactions    int64   `json:"compactions"`
}

// Stats returns the current snapshot. It is lock-free: counters are read
// from atomics and the structural fields from the current per-shard read
// snapshots, so Stats can be polled while writers and merges run. On a
// closed DB it returns the zero Stats.
func (db *DB) Stats() Stats {
	s := Stats{Shards: make([]ShardStats, 0, len(db.shards))}
	for _, sh := range db.shards {
		ss, ok := sh.stats()
		if !ok {
			return Stats{}
		}
		s.add(&ss)
		s.Shards = append(s.Shards, ss)
	}
	s.Levels = mergeLevels(s.Shards)
	s.Latencies = db.latencyStats()
	return s
}

// mergeLevels combines the per-shard level rows by level number: counts
// sum, Runs is the maximum, and WasteFactor is the block-weighted mean (0
// for a level empty everywhere, as for an empty level of one shard). For
// one shard this reproduces its rows exactly.
func mergeLevels(per []ShardStats) []LevelStats {
	var out []LevelStats
	var wasted []float64 // per level: sum of WasteFactor × Blocks
	for _, ss := range per {
		for _, lv := range ss.Levels {
			for len(out) < lv.Level {
				out = append(out, LevelStats{Level: len(out) + 1})
				wasted = append(wasted, 0)
			}
			row := &out[lv.Level-1]
			row.Runs = max(row.Runs, lv.Runs)
			row.Blocks += lv.Blocks
			row.Records += lv.Records
			row.CapacityBlocks += lv.CapacityBlocks
			row.BlocksWritten += lv.BlocksWritten
			row.Compactions += lv.Compactions
			wasted[lv.Level-1] += lv.WasteFactor * float64(lv.Blocks)
		}
	}
	for i := range out {
		if out[i].Blocks > 0 {
			out[i].WasteFactor = wasted[i] / float64(out[i].Blocks)
		}
	}
	return out
}

// stats gathers one shard's snapshot; ok is false if the DB closed.
func (s *shard) stats() (ShardStats, bool) {
	v, err := s.acquireView()
	if err != nil {
		return ShardStats{}, false
	}
	defer v.Release()
	ts := s.tree.Stats()
	dc := s.tree.Device().Counters()
	ss := ShardStats{
		Shard:           s.id,
		BlocksWritten:   dc.Writes,
		BlocksRead:      dc.Reads,
		LiveBlocks:      dc.Live,
		Requests:        ts.Requests,
		Inserts:         ts.Inserts,
		Deletes:         ts.Deletes,
		Lookups:         ts.Lookups,
		Scans:           ts.Scans,
		RequestBytes:    ts.RequestBytes,
		Height:          v.Height(),
		Records:         v.Records(),
		MemtableRecords: v.MemLen(),
		Merges:          ts.Merges,
		FullMerges:      ts.FullMerges,
		BloomSkipped:    ts.BloomSkipped,
		BloomPassed:     ts.BloomPassed,
	}
	for _, lv := range v.Levels() {
		ss.Levels = append(ss.Levels, LevelStats{
			Level:          lv.Number,
			Runs:           len(lv.Runs),
			Blocks:         lv.Blocks(),
			Records:        lv.Records,
			CapacityBlocks: lv.Capacity(),
			WasteFactor:    lv.WasteFactor,
			BlocksWritten:  lv.BlocksWritten,
			Compactions:    lv.Compactions,
		})
	}
	if c := s.tree.Cache(); c != nil {
		cs := c.Stats()
		ss.CacheHits, ss.CacheMisses = cs.Hits, cs.Misses
	}
	cs := s.sched.Snapshot()
	ss.Compaction = CompactionStats{
		Mode:         cs.Mode.String(),
		QueueDepth:   cs.QueueDepth,
		L0Blocks:     cs.L0Blocks,
		Steps:        cs.Steps,
		Slowdowns:    cs.Slowdowns,
		Stops:        cs.Stops,
		SlowdownTime: cs.SlowdownTime,
		StopTime:     cs.StopTime,
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		ss.WAL = WALStats{
			Enabled:   true,
			Appends:   ws.Appends,
			Ops:       ws.Ops,
			Bytes:     ws.Bytes,
			Syncs:     ws.Syncs,
			Rotations: ws.Rotations,
			Segments:  ws.Segments,
			LastSeq:   ws.NextSeq - 1,
			Recovery:  s.recovery,
		}
	}
	if s.lat.Enabled() {
		for op := obs.Op(0); op < obs.NumOps; op++ {
			if st, ok := latencyRow(op, s.lat.Hist(op).Snapshot()); ok {
				ss.Latencies = append(ss.Latencies, st)
			}
		}
	}
	ss.state = s.health.State()
	ss.Health = ss.state.String()
	ss.HealthCause, _ = s.health.Cause()
	ss.Quarantined = s.tree.QuarantinedCount()
	rs := s.rdev.RetryStats()
	ss.RetriedReads = rs.Retries
	ss.RetriesExhausted = rs.Exhausted
	ss.ScrubPasses = s.scrubPasses.Load()
	ss.ScrubChecked = s.scrubChecked.Load()
	ss.ScrubCorrupt = s.scrubCorrupt.Load()
	ss.ScrubRepaired = s.scrubRepaired.Load()
	return ss, true
}

// latencyRow materializes one op's summary; ok is false when empty.
func latencyRow(op obs.Op, snap obs.HistSnapshot) (LatencyStats, bool) {
	if snap.Count == 0 {
		return LatencyStats{}, false
	}
	return LatencyStats{
		Op:    op.String(),
		Count: snap.Count,
		Mean:  snap.Mean(),
		P50:   snap.Quantile(0.50),
		P95:   snap.Quantile(0.95),
		P99:   snap.Quantile(0.99),
		Max:   snap.Max(),
	}, true
}

// latHist returns op's DB-wide histogram: the router-level series merged
// with every shard's (histograms over fixed buckets are closed under
// addition).
func (db *DB) latHist(op obs.Op) obs.HistSnapshot {
	snap := db.lat.Hist(op).Snapshot()
	for _, s := range db.shards {
		snap.Merge(s.lat.Hist(op).Snapshot())
	}
	return snap
}

// latencyStats materializes the non-empty DB-wide latency histograms.
func (db *DB) latencyStats() []LatencyStats {
	if !db.lat.Enabled() {
		return nil
	}
	var out []LatencyStats
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if st, ok := latencyRow(op, db.latHist(op)); ok {
			out = append(out, st)
		}
	}
	return out
}

// ResetIOStats starts a fresh measurement window: it zeroes every
// cumulative counter reported by Stats — device read/write traffic,
// request accounting, merge and growth counts, the per-level
// BlocksWritten/Compactions series, cache and Bloom statistics, and the
// latency histograms — across every shard. Structural state (Height,
// Records, LiveBlocks, level contents) is unaffected. See the Stats
// documentation for the uniform-window guarantee this provides.
func (db *DB) ResetIOStats() {
	unlock := db.lockAllShards()
	defer unlock()
	for _, s := range db.shards {
		s.tree.ResetStats() // also resets s.lat (the tree's Config.Lat)
		s.sched.ResetCounters()
		if s.wal != nil {
			s.wal.ResetCounters()
		}
	}
	db.lat.Reset()
	db.tracer.ResetPhases()
}
