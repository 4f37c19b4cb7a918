package main

import (
	"fmt"

	"vexdb/internal/workload"
)

// sizes fixes every input size of the three workloads.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	voter workload.Config

	// analytic_mix
	events      int   // rows of the events table
	eventKeys   int   // distinct spill_agg group keys
	scanRows    int   // rows one scan selects
	scoreRows   int   // rows one score query predicts
	trainRows   int   // rows the setup model trains on
	mixBudget   int64 // per-query memory budget in bytes
	mixPool     int64 // governor memory pool in bytes
	planEvents  int   // rows of each join events table (E8 shape)
	planHotKeys int
	planDims    int

	// ingest_read
	ingestBase      int // rows loaded at set-up
	ingestQuota     int // rows one writer round inserts
	insertRows      int // rows per INSERT
	checkpointEvery int // acked rows between checkpoints
	recentRows      int // how far back the recent-range read looks
}

var sizeSets = map[string]sizes{
	"full": {
		setups: 3,
		voter:  workload.DefaultConfig(),

		events: 600_000, eventKeys: 60_000, scanRows: 4096, scoreRows: 8192, trainRows: 20_000,
		mixBudget: 4 << 20, mixPool: 64 << 20,
		planEvents: 40_000, planHotKeys: 151, planDims: 1000,

		ingestBase: 200_000, ingestQuota: 100_000, insertRows: 100, checkpointEvery: 25_000, recentRows: 5000,
	},
	"tiny": {
		setups: 2,
		voter: workload.Config{Voters: 6000, Precincts: 97, Columns: 12, Features: 4,
			Estimators: 4, MaxDepth: 6, Seed: 1, TestModulus: 4},

		events: 30_000, eventKeys: 12_000, scanRows: 1000, scoreRows: 2048, trainRows: 3000,
		mixBudget: 256 << 10, mixPool: 16 << 20,
		planEvents: 3000, planHotKeys: 31, planDims: 100,

		ingestBase: 5000, ingestQuota: 3000, insertRows: 100, checkpointEvery: 1000, recentRows: 500,
	},
}

func (s sizes) describe(wl string) string {
	switch wl {
	case "voter_pipeline":
		v := s.voter
		return fmt.Sprintf("voters=%d precincts=%d columns=%d features=%d trees=%d depth=%d test=1/%d setups=%d",
			v.Voters, v.Precincts, v.Columns, v.Features, v.Estimators, v.MaxDepth, v.TestModulus, s.setups)
	case "analytic_mix":
		return fmt.Sprintf("events=%d keys=%d scan_rows=%d score_rows=%d train_rows=%d budget=%dB pool=%dB join_events=%d hot_keys=%d dims=%d setups=%d",
			s.events, s.eventKeys, s.scanRows, s.scoreRows, s.trainRows, s.mixBudget, s.mixPool,
			s.planEvents, s.planHotKeys, s.planDims, s.setups)
	default:
		return fmt.Sprintf("base_rows=%d round_quota=%d insert_rows=%d checkpoint_every=%d recent_rows=%d",
			s.ingestBase, s.ingestQuota, s.insertRows, s.checkpointEvery, s.recentRows)
	}
}
