package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"biglake/internal/engine"
)

// configJSON fixes every engine setting, world size, rate ladder and
// latency limit the workloads use. It is embedded so a built binary
// always runs with the configuration it was built from.
//
//go:embed config.json
var configJSON []byte

type config struct {
	HeldOutSeed    uint64 `json:"held_out_seed"`
	SetupRepeats   int    `json:"setup_repeats"`
	MaxDispatchers int    `json:"max_dispatchers"`
	Engine         struct {
		EnableScanCache bool `json:"enable_scan_cache"`
		MorselWorkers   int  `json:"morsel_workers"`
	} `json:"engine"`
	Workloads struct {
		StarWarm  starConfig   `json:"star-warm"`
		LakeScan  lakeConfig   `json:"lake-scan"`
		TenantMix tenantConfig `json:"tenant-mix"`
	} `json:"workloads"`
	LayerMap map[string]string `json:"layer_map"`
}

// starWorld sizes the E15 star schema and its join mix.
type starWorld struct {
	FactRows       int   `json:"fact_rows"`
	FactFiles      int   `json:"fact_files"`
	DimRows        int   `json:"dim_rows"`
	ScanCacheBytes int64 `json:"scan_cache_bytes"`
	DPPVariants    int   `json:"dpp_variants"`
	DPPKeyRange    int   `json:"dpp_key_range"`
}

type starConfig struct {
	starWorld
	PassStatements int `json:"pass_statements"`
	// DPPPerPass fixes how many of a pass's statements are DPP
	// variants, so every seed measures the same mix.
	DPPPerPass int `json:"dpp_statements_per_pass"`
}

type lakeConfig struct {
	Dates          int   `json:"dates"`
	FilesPerDate   int   `json:"files_per_date"`
	RowsPerFile    int   `json:"rows_per_file"`
	Items          int   `json:"items"`
	Customers      int   `json:"customers"`
	Stores         int   `json:"stores"`
	ScanCacheBytes int64 `json:"scan_cache_bytes"`
	ReadEvery      int   `json:"read_every"`
}

type tenantConfig struct {
	starWorld
	Tenants    int   `json:"tenants"`
	RateLadder []int `json:"rate_ladder_per_s"`
	// ReferenceRate bounds the rungs whose statements the latency
	// metrics read: the ladder climbs past it to find slo_qps, where
	// backlogged statements would swamp the latencies.
	ReferenceRate    int     `json:"reference_rate_per_s"`
	PointTailLimitMS float64 `json:"point_tail_limit_ms"`
	BacklogLimit     int     `json:"backlog_limit"`
	LateLimitMS      float64 `json:"late_limit_ms"`
	OptimizeEveryMS  int     `json:"optimize_every_ms"`
	Mix              struct {
		Point   int `json:"point"`
		GroupBy int `json:"group_by"`
		Write   int `json:"write"`
		Star    int `json:"star"`
	} `json:"mix_percent"`
	OpsPointSharePercent int `json:"ops_point_share_percent"`
	GroupVariants        int `json:"group_variants"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("config.json: %w", err)
	}
	if c.SetupRepeats < 1 || c.MaxDispatchers < 1 {
		return c, fmt.Errorf("config.json: setup_repeats and max_dispatchers must be at least 1")
	}
	return c, nil
}

// tiny shrinks every world so the benchmark's own tests run in
// seconds. The shapes (file counts, cache budget below or above the
// working set) are kept; only row counts and the ladder shrink.
func (c *config) tiny() {
	s := &c.Workloads.StarWarm
	s.FactRows, s.PassStatements, s.DPPPerPass = 8000, 8, 2
	l := &c.Workloads.LakeScan
	l.Dates, l.FilesPerDate, l.RowsPerFile, l.ScanCacheBytes = 6, 4, 100, 32<<10
	t := &c.Workloads.TenantMix
	t.FactRows, t.Tenants, t.OptimizeEveryMS = 8000, 4, 200
	t.RateLadder, t.ReferenceRate = []int{20, 40}, 40
}

// engineOptions is the one engine configuration every workload shares;
// only the scan-cache budget differs per workload.
func (c config) engineOptions(scanCacheBytes int64) engine.Options {
	o := engine.DefaultOptions()
	o.EnableScanCache = c.Engine.EnableScanCache
	o.ScanCacheBytes = scanCacheBytes
	o.MorselWorkers = c.Engine.MorselWorkers
	return o
}
