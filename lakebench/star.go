package main

import (
	"math/rand"
)

// driver is one seeded workload. prepare makes the inputs and
// reference answers (untimed); build makes and warms one world (timed
// as set-up); measure drives the world for one phase.
type driver interface {
	prepare(seed uint64) error
	build() (*world, error)
	measure(ph *phase) error
}

// starWarm is a closed loop with one client over the E15 star schema:
// a seeded mix of the plain star join and DPP-filtered variants, all
// served from the scan cache after warm-up.
type starWarm struct {
	cfg     config
	s       starConfig
	data    *starData
	queries []query
	pass    []int // query indexes, one pass
}

func (sw *starWarm) prepare(seed uint64) error {
	sw.data = genStar(seed, sw.s.starWorld)
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	sw.queries = starQueries(rng, sw.s.starWorld)
	if err := reference(sw.data.oracleDB(), sw.queries); err != nil {
		return err
	}
	// A pass is the plain join plus DPPPerPass DPP variants, cycling
	// through the variants, in seeded order.
	sw.pass = make([]int, sw.s.PassStatements)
	for i := 0; i < sw.s.DPPPerPass; i++ {
		sw.pass[i] = 1 + i%sw.s.DPPVariants
	}
	rng.Shuffle(len(sw.pass), func(i, j int) { sw.pass[i], sw.pass[j] = sw.pass[j], sw.pass[i] })
	return nil
}

func (sw *starWarm) build() (*world, error) {
	w, err := newWorld(sw.cfg, sw.s.ScanCacheBytes)
	if err != nil {
		return nil, err
	}
	if err := sw.data.load(w); err != nil {
		return nil, err
	}
	// One whole pass warms the scan cache and the statement cache, so
	// every measured pass starts from the same state.
	warm := make([]query, len(sw.pass))
	for i, qi := range sw.pass {
		warm[i] = sw.queries[qi]
	}
	return w, warmUp(w, warm)
}

func (sw *starWarm) measure(ph *phase) error {
	ph.runPasses(func() {
		for _, qi := range sw.pass {
			ph.coreStep(sw.queries[qi])
		}
	})
	return nil
}
