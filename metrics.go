package lsmssd

import (
	"errors"
	"strconv"

	"lsmssd/internal/health"
	"lsmssd/internal/obs"
)

// Event types re-exported from the internal observability layer. A sink
// registered with DB.Subscribe receives these; type-switch to consume:
//
//	cancel := db.Subscribe(func(ev lsmssd.Event) {
//		if m, ok := ev.(lsmssd.MergeEvent); ok {
//			log.Printf("merge L%d→L%d wrote %d blocks", m.From, m.To, m.TotalWrites())
//		}
//	})
//	defer cancel()
//
// Events are delivered asynchronously on a single dispatcher goroutine, in
// publication order. Construct these types only to test your own sinks;
// the engine is the producer.
type (
	// Event is the interface all observability events implement.
	Event = obs.Event
	// MergeEvent describes one executed merge (window choice, overlap,
	// preservation, repair cases, I/O and wall-clock cost).
	MergeEvent = obs.MergeEvent
	// FlushEvent describes one memtable drain.
	FlushEvent = obs.FlushEvent
	// GrowEvent records the tree gaining a storage level.
	GrowEvent = obs.GrowEvent
	// CacheEvent reports buffer-cache traffic deltas between merges.
	CacheEvent = obs.CacheEvent
	// WarnEvent is an operator-facing warning (e.g. waste-factor pressure).
	WarnEvent = obs.WarnEvent
	// RunEvent marks measurement-window boundaries in recorded traces.
	RunEvent = obs.RunEvent
	// StallEvent records a write that hit compaction backpressure (the
	// pacing sleep or the hard stall gate) under BackgroundCompaction.
	StallEvent = obs.StallEvent
	// WALEvent reports a write-ahead-log segment rotation or a
	// checkpoint-driven segment garbage collection.
	WALEvent = obs.WALEvent
	// RecoveryEvent summarizes the crash recovery Open performed (frames
	// replayed, torn tail truncated).
	RecoveryEvent = obs.RecoveryEvent
	// SpanEvent is one finished operation span: total wall time split
	// across engine phases (WAL append, fsync wait, stall wait, memtable,
	// cascade, Bloom, cache vs device reads, k-way merge), summing to the
	// total exactly. Published for sampled ops (Options.TraceSampleRate)
	// and every op over Options.SlowOpThreshold.
	SpanEvent = obs.SpanEvent
	// HealthEvent records one accepted shard health transition (the From,
	// To states, a machine-stable Cause tag, and the triggering error's
	// text). Every demotion and promotion publishes exactly one.
	HealthEvent = obs.HealthEvent
	// ScrubEvent summarizes one completed scrub pass over a shard's live
	// blocks (checked, corrupt, repaired, still-quarantined counts).
	ScrubEvent = obs.ScrubEvent
	// TimelineSample is one time bucket of one shard's flight-recorder
	// timeline; see DB.Timeline.
	TimelineSample = obs.TimelineSample
	// PhaseStat is one phase's latency summary inside a TimelineSample.
	PhaseStat = obs.PhaseStat
)

// Subscribe attaches sink to the DB's event bus and returns a cancel
// function. The sink runs on the bus's dispatcher goroutine, never on the
// engine's writer path; a slow sink causes events to be dropped (and
// counted), never a stalled merge. With no subscribers the engine
// constructs no events at all, so an unobserved DB's write counts are
// unaffected by the observability layer. Close delivers pending events
// before returning; cancel only stops future deliveries.
func (db *DB) Subscribe(sink func(Event)) (cancel func()) {
	return db.bus.Subscribe(obs.SinkFunc(sink))
}

// EventDrops returns the number of events discarded because sinks could
// not keep up with the engine (the bus never blocks the writer).
func (db *DB) EventDrops() int64 { return db.bus.Drops() }

// MetricsAddr returns the bound address of the observability endpoint
// ("host:port", with ephemeral ports resolved), or "" when
// Options.MetricsAddr was not set.
func (db *DB) MetricsAddr() string {
	if db.metrics == nil {
		return ""
	}
	return db.metrics.Addr()
}

// startObs finishes Open: it starts the flight recorder when
// Options.Metrics is on and the HTTP observability endpoint when
// Options.MetricsAddr is set. On listen failure the DB is closed and the
// error returned, so Open never hands back a half-observable store.
func (db *DB) startObs() (*DB, error) {
	if db.opts.Metrics {
		db.recorder = obs.StartRecorder(obs.RecorderConfig{
			Shards:   len(db.shards),
			Interval: db.opts.TimelineInterval,
			Capacity: db.opts.TimelineCapacity,
			Collect:  db.collectShardCounters,
		})
	}
	if db.opts.MetricsAddr == "" {
		return db, nil
	}
	srv, err := obs.StartServer(obs.ServerConfig{
		Addr:     db.opts.MetricsAddr,
		Metrics:  db.metricFamilies,
		Debug:    func() any { return db.debugState() },
		Timeline: func() any { return db.Timeline() },
		Slow:     func() any { return db.SlowOps() },
	})
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	db.metrics = srv
	return db, nil
}

// collectShardCounters gathers every shard's cumulative observability
// counters for one flight-recorder tick. It runs on the recorder
// goroutine concurrently with foreground traffic: everything it touches
// is atomics, internal short-lived mutexes, or fields that only change
// after the recorder is stopped (s.wal).
func (db *DB) collectShardCounters() []obs.ShardCounters {
	out := make([]obs.ShardCounters, len(db.shards))
	for i, s := range db.shards {
		sc := &out[i]
		sc.Put = s.lat.Hist(obs.OpPut).Snapshot()
		sc.Get = s.lat.Hist(obs.OpGet).Snapshot()
		del := s.lat.Hist(obs.OpDelete).Snapshot()
		app := s.lat.Hist(obs.OpApply).Snapshot()
		sc.Ops = sc.Put.Count + sc.Get.Count + del.Count + app.Count
		sc.Phases = db.tracer.PhaseSnapshot(i)
		cs := s.sched.Snapshot()
		sc.Stalls = cs.Slowdowns + cs.Stops
		sc.StallNanos = int64(cs.SlowdownTime + cs.StopTime)
		sc.QueueDepth = cs.QueueDepth
		sc.L0Blocks = cs.L0Blocks
		if s.wal != nil {
			ws := s.wal.Stats()
			sc.WALSyncs = ws.Syncs
			sc.WALSyncNanos = ws.SyncNanos
		}
		if c := s.tree.Cache(); c != nil {
			st := c.Stats()
			sc.CacheHits, sc.CacheMisses = st.Hits, st.Misses
		}
	}
	return out
}

// Timeline returns the flight recorder's retained samples, one slice per
// shard, oldest first: a per-interval time series of ops/s, latency
// quantiles, per-phase deltas (when tracing is on), stall state,
// compaction debt, WAL sync latency, and cache hit rate over the last
// Options.TimelineCapacity intervals. Nil unless Options.Metrics (or
// MetricsAddr) is set. Also served at /debug/lsm/timeline.
func (db *DB) Timeline() [][]TimelineSample {
	return db.recorder.Timeline()
}

// SlowOps returns the captured slow operations, newest first: every op
// whose total latency met Options.SlowOpThreshold, with its full phase
// breakdown, retained in a bounded ring. Nil unless SlowOpThreshold is
// set. Also served at /debug/lsm/slow.
func (db *DB) SlowOps() []SpanEvent {
	return db.tracer.SlowOps()
}

// metricRow defines one scalar metric family as a projection of
// ShardStats. The aggregate family reads Stats' embedded aggregate; when
// shard is set and the DB has more than one shard, a second family of
// that name reads every Shards entry through the same value func, one
// sample per shard label. wal rows exist only while the WAL is on.
type metricRow struct {
	name, help       string
	typ              obs.FamilyType
	value            func(*ShardStats) float64
	wal              bool
	shard, shardHelp string
}

// scalarMetrics is the table of scalar /metrics families: adding one is
// adding a row.
var scalarMetrics = []metricRow{
	{name: "lsmssd_blocks_written_total", typ: obs.TypeCounter, help: "Data blocks written to the device (the paper's cost metric).", value: func(s *ShardStats) float64 { return float64(s.BlocksWritten) },
		shard: "lsmssd_shard_blocks_written_total", shardHelp: "Data blocks written by the shard's tree."},
	{name: "lsmssd_blocks_read_total", typ: obs.TypeCounter, help: "Data blocks read from the device (cache misses only when caching is on).", value: func(s *ShardStats) float64 { return float64(s.BlocksRead) }},
	{name: "lsmssd_live_blocks", typ: obs.TypeGauge, help: "Device blocks currently allocated.", value: func(s *ShardStats) float64 { return float64(s.LiveBlocks) }},
	{name: "lsmssd_requests_total", typ: obs.TypeCounter, help: "Modification requests processed (inserts plus deletes).", value: func(s *ShardStats) float64 { return float64(s.Requests) },
		shard: "lsmssd_shard_requests_total", shardHelp: "Modification requests routed to the shard."},
	{name: "lsmssd_inserts_total", typ: obs.TypeCounter, help: "Insert/update requests processed.", value: func(s *ShardStats) float64 { return float64(s.Inserts) }},
	{name: "lsmssd_deletes_total", typ: obs.TypeCounter, help: "Delete requests processed.", value: func(s *ShardStats) float64 { return float64(s.Deletes) }},
	{name: "lsmssd_lookups_total", typ: obs.TypeCounter, help: "Point lookups served.", value: func(s *ShardStats) float64 { return float64(s.Lookups) }},
	{name: "lsmssd_scans_total", typ: obs.TypeCounter, help: "Range scans started.", value: func(s *ShardStats) float64 { return float64(s.Scans) }},
	{name: "lsmssd_request_bytes_total", typ: obs.TypeCounter, help: "Key+payload bytes of modifications processed.", value: func(s *ShardStats) float64 { return float64(s.RequestBytes) }},
	{name: "lsmssd_merges_total", typ: obs.TypeCounter, help: "Merges executed.", value: func(s *ShardStats) float64 { return float64(s.Merges) }},
	{name: "lsmssd_full_merges_total", typ: obs.TypeCounter, help: "Merges that took a whole source level.", value: func(s *ShardStats) float64 { return float64(s.FullMerges) }},
	{name: "lsmssd_height", typ: obs.TypeGauge, help: "Tree height including the memtable level.", value: func(s *ShardStats) float64 { return float64(s.Height) },
		shard: "lsmssd_shard_height", shardHelp: "Shard tree height including the memtable level."},
	{name: "lsmssd_records", typ: obs.TypeGauge, help: "Records stored, including shadowed versions and tombstones.", value: func(s *ShardStats) float64 { return float64(s.Records) },
		shard: "lsmssd_shard_records", shardHelp: "Records stored in the shard, including shadowed versions and tombstones."},
	{name: "lsmssd_memtable_records", typ: obs.TypeGauge, help: "Records currently in the memtable (L0).", value: func(s *ShardStats) float64 { return float64(s.MemtableRecords) }},
	{name: "lsmssd_cache_hits_total", typ: obs.TypeCounter, help: "Buffer-cache hits.", value: func(s *ShardStats) float64 { return float64(s.CacheHits) }},
	{name: "lsmssd_cache_misses_total", typ: obs.TypeCounter, help: "Buffer-cache misses.", value: func(s *ShardStats) float64 { return float64(s.CacheMisses) }},
	{name: "lsmssd_bloom_skipped_total", typ: obs.TypeCounter, help: "Block reads avoided by Bloom filters.", value: func(s *ShardStats) float64 { return float64(s.BloomSkipped) }},
	{name: "lsmssd_bloom_passed_total", typ: obs.TypeCounter, help: "Lookups Bloom filters could not rule out.", value: func(s *ShardStats) float64 { return float64(s.BloomPassed) }},
	{name: "lsmssd_compaction_queue_depth", typ: obs.TypeGauge, help: "Overflowing merge sources (memtable and full levels) awaiting compaction; always 0 in sync mode.", value: func(s *ShardStats) float64 { return float64(s.Compaction.QueueDepth) }},
	{name: "lsmssd_compaction_steps_total", typ: obs.TypeCounter, help: "Cascade steps executed by the background compaction schedulers.", value: func(s *ShardStats) float64 { return float64(s.Compaction.Steps) }},
	{name: "lsmssd_quarantined_blocks", typ: obs.TypeGauge, help: "Corrupt blocks currently quarantined (pinned, excluded from merges) across all shards.", value: func(s *ShardStats) float64 { return float64(s.Quarantined) }},
	{name: "lsmssd_wal_enabled", typ: obs.TypeGauge, help: "1 when the write-ahead log is on.", wal: true, value: func(*ShardStats) float64 { return 1 }},
	{name: "lsmssd_wal_appends_total", typ: obs.TypeCounter, help: "WAL frames appended (one per Put/Delete/Apply).", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Appends) }},
	{name: "lsmssd_wal_ops_total", typ: obs.TypeCounter, help: "Operations inside appended WAL frames.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Ops) }},
	{name: "lsmssd_wal_bytes_total", typ: obs.TypeCounter, help: "WAL frame bytes written, headers included.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Bytes) }},
	{name: "lsmssd_wal_syncs_total", typ: obs.TypeCounter, help: "WAL fsyncs issued by the sync policy or checkpoints.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Syncs) }},
	{name: "lsmssd_wal_rotations_total", typ: obs.TypeCounter, help: "WAL segments sealed (each seals a checkpoint).", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Rotations) }},
	{name: "lsmssd_wal_segments", typ: obs.TypeGauge, help: "WAL segment files currently on disk.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Segments) }},
	{name: "lsmssd_wal_last_seq", typ: obs.TypeGauge, help: "Sequence of the newest logged frame.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.LastSeq) }},
	{name: "lsmssd_wal_recovered_ops_total", typ: obs.TypeCounter, help: "Operations re-applied by crash recovery at Open.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Recovery.Ops) }},
	{name: "lsmssd_wal_recovered_torn_bytes_total", typ: obs.TypeCounter, help: "Bytes truncated from the WAL's torn tail at Open.", wal: true, value: func(s *ShardStats) float64 { return float64(s.WAL.Recovery.TornBytes) }},
}

func shardLabel(n int) []obs.Label {
	return []obs.Label{{Name: "shard", Value: strconv.Itoa(n)}}
}

// metricFamilies materializes the /metrics payload from a Stats snapshot.
// Called per scrape from HTTP handler goroutines; everything it reads is
// lock-free or behind the few-instruction view mutex.
func (db *DB) metricFamilies() []obs.Family {
	s := db.Stats()
	var fams []obs.Family
	for _, m := range scalarMetrics {
		if m.wal && !s.WAL.Enabled {
			continue
		}
		fams = append(fams, obs.Family{Name: m.name, Help: m.help, Type: m.typ,
			Samples: []obs.Sample{{Value: m.value(&s.ShardStats)}}})
		if m.shard == "" || len(s.Shards) < 2 {
			continue
		}
		f := obs.Family{Name: m.shard, Help: m.shardHelp, Type: m.typ}
		for i := range s.Shards {
			f.Samples = append(f.Samples, obs.Sample{Labels: shardLabel(s.Shards[i].Shard), Value: m.value(&s.Shards[i])})
		}
		fams = append(fams, f)
	}
	hf := obs.Family{
		Name: "lsmssd_shard_health",
		Help: "Shard fault-domain state: 0 healthy, 1 degraded, 2 read-only, 3 failed.",
		Type: obs.TypeGauge,
	}
	for _, ss := range s.Shards {
		hf.Samples = append(hf.Samples, obs.Sample{Labels: shardLabel(ss.Shard), Value: float64(ss.state)})
	}
	fams = append(fams, hf,
		obs.Family{Name: "lsmssd_event_drops_total", Help: "Observability events dropped because sinks lagged.", Type: obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(db.bus.Drops())}}},
		obs.Family{Name: "lsmssd_shards", Help: "Number of key-space shards (independent LSM trees) behind this DB.", Type: obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(len(s.Shards))}}},
	)
	stallKind := func(kind string) []obs.Label {
		return []obs.Label{{Name: "kind", Value: kind}}
	}
	fams = append(fams,
		obs.Family{
			Name: "lsmssd_write_stalls_total",
			Help: "Writes that hit compaction backpressure, by kind (slowdown = pacing sleep, stop = hard gate).",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: stallKind("slowdown"), Value: float64(s.Compaction.Slowdowns)},
				{Labels: stallKind("stop"), Value: float64(s.Compaction.Stops)},
			},
		},
		obs.Family{
			Name: "lsmssd_write_stall_seconds_total",
			Help: "Cumulative time writes spent stalled, by kind.",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: stallKind("slowdown"), Value: s.Compaction.SlowdownTime.Seconds()},
				{Labels: stallKind("stop"), Value: s.Compaction.StopTime.Seconds()},
			},
		},
	)

	levelLabel := func(n int) []obs.Label {
		return []obs.Label{{Name: "level", Value: strconv.Itoa(n)}}
	}
	perLevel := []struct {
		name, help string
		typ        obs.FamilyType
		value      func(LevelStats) float64
	}{
		{"lsmssd_level_blocks", "Data blocks in the level.", obs.TypeGauge,
			func(l LevelStats) float64 { return float64(l.Blocks) }},
		{"lsmssd_level_records", "Records in the level.", obs.TypeGauge,
			func(l LevelStats) float64 { return float64(l.Records) }},
		{"lsmssd_level_capacity_blocks", "Level capacity K_i in blocks.", obs.TypeGauge,
			func(l LevelStats) float64 { return float64(l.CapacityBlocks) }},
		{"lsmssd_level_waste_factor", "Fraction of empty record slots in the level (bounded by epsilon).", obs.TypeGauge,
			func(l LevelStats) float64 { return l.WasteFactor }},
		{"lsmssd_level_blocks_written_total", "Cumulative blocks written into the level.", obs.TypeCounter,
			func(l LevelStats) float64 { return float64(l.BlocksWritten) }},
		{"lsmssd_level_compactions_total", "Compactions of the level.", obs.TypeCounter,
			func(l LevelStats) float64 { return float64(l.Compactions) }},
	}
	for _, m := range perLevel {
		f := obs.Family{Name: m.name, Help: m.help, Type: m.typ}
		for _, l := range s.Levels {
			f.Samples = append(f.Samples, obs.Sample{Labels: levelLabel(l.Level), Value: m.value(l)})
		}
		fams = append(fams, f)
	}

	lf := obs.Family{
		Name: "lsmssd_op_duration_seconds",
		Help: "Operation latency (log-spaced buckets). Recorded only when Options.Metrics or MetricsAddr is set.",
		Type: obs.TypeHistogram,
	}
	if db.lat.Enabled() {
		for op := obs.Op(0); op < obs.NumOps; op++ {
			lf.Hists = append(lf.Hists, obs.HistSample{
				Labels: []obs.Label{{Name: "op", Value: op.String()}},
				Snap:   db.latHist(op),
				Scale:  1e-9,
			})
		}
	}
	fams = append(fams, lf)
	if db.lat.Enabled() && len(db.shards) > 1 {
		sf := obs.Family{
			Name: "lsmssd_shard_op_duration_seconds",
			Help: "Operation latency by owning shard (log-spaced buckets).",
			Type: obs.TypeHistogram,
		}
		for _, sh := range db.shards {
			for op := obs.Op(0); op < obs.NumOps; op++ {
				snap := sh.lat.Hist(op).Snapshot()
				if snap.Count == 0 {
					continue
				}
				sf.Hists = append(sf.Hists, obs.HistSample{
					Labels: []obs.Label{
						{Name: "shard", Value: strconv.Itoa(sh.id)},
						{Name: "op", Value: op.String()},
					},
					Snap:  snap,
					Scale: 1e-9,
				})
			}
		}
		fams = append(fams, sf)
	}
	if db.tracer.Enabled() {
		pf := obs.Family{
			Name: "lsmssd_phase_duration_seconds",
			Help: "Traced-operation time by engine phase, summed across shards (requires TraceSampleRate or SlowOpThreshold).",
			Type: obs.TypeHistogram,
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			var snap obs.HistSnapshot
			for i := range db.shards {
				snap.Merge(db.tracer.PhaseSnapshot(i)[p])
			}
			if snap.Count == 0 {
				continue
			}
			pf.Hists = append(pf.Hists, obs.HistSample{
				Labels: []obs.Label{{Name: "phase", Value: p.String()}},
				Snap:   snap,
				Scale:  1e-9,
			})
		}
		fams = append(fams, pf)
	}
	if latest := db.recorder.Latest(); len(latest) > 0 {
		timeline := []struct {
			name, help string
			value      func(TimelineSample) float64
		}{
			{"lsmssd_timeline_ops_per_sec", "Operations per second over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return t.OpsPerSec }},
			{"lsmssd_timeline_put_p99_seconds", "Put p99 over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.PutP99NS) * 1e-9 }},
			{"lsmssd_timeline_get_p99_seconds", "Get p99 over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.GetP99NS) * 1e-9 }},
			{"lsmssd_timeline_stalls", "Write stalls during the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.Stalls) }},
			{"lsmssd_timeline_l0_blocks", "L0 size in blocks at the last flight-recorder tick.",
				func(t TimelineSample) float64 { return float64(t.L0Blocks) }},
			{"lsmssd_timeline_wal_sync_mean_seconds", "Mean WAL fsync latency over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.WALSyncMeanNS) * 1e-9 }},
			{"lsmssd_timeline_cache_hit_rate", "Buffer-cache hit rate over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return t.CacheHitRate }},
		}
		for _, m := range timeline {
			f := obs.Family{Name: m.name, Help: m.help, Type: obs.TypeGauge}
			for _, t := range latest {
				f.Samples = append(f.Samples, obs.Sample{Labels: shardLabel(t.Shard), Value: m.value(t)})
			}
			fams = append(fams, f)
		}
	}
	return fams
}

// debugState is the /debug/lsm payload: the Stats snapshot, whose fields
// encoding/json flattens to the top level, plus the engine internals
// Stats does not carry — the policy name, the snapshot machinery (live
// views, deferred frees), bus drops, and, while any shard is unhealthy,
// DB.Health's per-shard error text and quarantined blocks.
type debugState struct {
	Policy        string        `json:"policy"`
	LiveViews     int           `json:"live_views"`
	DeferredFrees int64         `json:"deferred_frees"`
	EventDrops    int64         `json:"event_drops"`
	ShardHealth   []ShardHealth `json:"shard_health,omitempty"`
	Stats
}

func (db *DB) debugState() debugState {
	d := debugState{
		Policy:     db.opts.MergePolicy.String(),
		EventDrops: db.bus.Drops(),
		Stats:      db.Stats(),
	}
	for _, sh := range db.shards {
		d.LiveViews += sh.tree.LiveViews()
		d.DeferredFrees += sh.tree.DeferredFrees()
	}
	if d.Health != health.Healthy.String() {
		d.ShardHealth = db.Health().Shards
	}
	return d
}
