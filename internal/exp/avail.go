package exp

import (
	"errors"
	"fmt"
	"time"

	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/workload"
)

// E13: availability under injected object-store faults. The TPC-H
// workload runs at increasing per-operation transient-fault rates,
// once with the resilience layer disabled (NoRetry — every fault
// surfaces to the query) and once with the default retry/hedging
// policy. The paper's lakehouse availability story rests on the engine
// absorbing storage-layer flakiness; this experiment quantifies how
// much absorption the unified policy buys and what it costs in
// retries.

// E13Row is one (fault rate, arm) measurement.
type E13Row struct {
	FaultRate float64
	Arm       string // "no-retry" or "resilient"
	Queries   int
	Succeeded int
	// SuccessRate is Succeeded/Queries.
	SuccessRate float64
	// Retries/Hedges are the policy counters spent across the arm.
	Retries int64
	Hedges  int64
	// FaultsInjected counts store-level injected faults seen by the arm.
	FaultsInjected int64
}

// E13Result is the availability-under-faults table.
type E13Result struct {
	Rows []E13Row
}

// e13Rates are the injected per-op transient-fault rates swept.
var e13Rates = []float64{0, 0.01, 0.03, 0.05}

// RunE13 sweeps fault rates over `rounds` repetitions of the TPC-H
// query set per arm.
func RunE13(scale, rounds int) (E13Result, error) {
	if rounds < 1 {
		rounds = 1
	}
	var out E13Result
	for _, rate := range e13Rates {
		for _, arm := range []string{"no-retry", "resilient"} {
			row, err := runE13Arm(scale, rounds, rate, arm)
			if err != nil {
				return E13Result{}, err
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func runE13Arm(scale, rounds int, rate float64, arm string) (E13Row, error) {
	env, queries, err := newE13Env(scale, arm)
	if err != nil {
		return E13Row{}, err
	}
	return measureE13Arm(env, queries, rounds, rate, arm)
}

// newE13Env loads TPC-H, installs the arm's engine policy and warms the
// metadata cache fault-free, so both arms start identically.
func newE13Env(scale int, arm string) (*Env, []workload.Query, error) {
	env, err := NewEnv(engine.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	if err := workload.LoadTPCH(env.WEnv, workload.DefaultTPCH(scale)); err != nil {
		return nil, nil, err
	}
	if arm == "no-retry" {
		env.Engine.Res = resilience.NoRetry()
		env.Engine.Res.Meter = env.Obs.Prefixed("resilience.")
	}
	queries := workload.TPCHQueries("bench")
	for _, q := range queries {
		if _, err := env.Engine.Query(engine.NewContext(Admin, "warm-"+q.ID), q.SQL); err != nil {
			return nil, nil, err
		}
	}
	return env, queries, nil
}

// measureE13Arm runs the arm's rounds under injected faults. Retries
// and hedges are read from the shared "resilience.*" names; only the
// engine policy spends them here (TestE13CountsOnlyEnginePolicy), and
// the registry may be shared across environments (benchlake installs
// one per experiment), so the arm reports deltas.
func measureE13Arm(env *Env, queries []workload.Query, rounds int, rate float64, arm string) (E13Row, error) {
	base := env.Obs.Snapshot().Counters
	delta := func(name string) int64 { return env.Obs.Get(name) - base[name] }
	env.Store.InjectFaults(objstore.FaultProfile{
		Seed:         1337,
		Rate:         rate,
		StreakLen:    2,
		SlowdownRate: rate / 2,
		Slowdown:     300 * time.Millisecond,
	})
	row := E13Row{FaultRate: rate, Arm: arm}
	for round := 0; round < rounds; round++ {
		for _, q := range queries {
			row.Queries++
			ctx := engine.NewContext(Admin, fmt.Sprintf("e13-%d-%s", round, q.ID))
			if _, err := env.Engine.Query(ctx, q.SQL); err == nil {
				row.Succeeded++
			} else if !errors.Is(err, objstore.ErrTransient) &&
				!errors.Is(err, resilience.ErrBudgetExhausted) &&
				!errors.Is(err, resilience.ErrDeadlineExceeded) {
				return E13Row{}, fmt.Errorf("e13 %s rate %.2f: unclassified failure: %w", arm, rate, err)
			}
		}
	}
	row.SuccessRate = float64(row.Succeeded) / float64(row.Queries)
	row.Retries = delta("resilience.retries")
	row.Hedges = delta("resilience.hedges")
	row.FaultsInjected = delta("objstore.faults.injected")
	return row, nil
}
