package sim

import (
	"sync"
	"testing"

	"omptune/internal/env"
	"omptune/internal/topology"
)

// TestConcurrentEvaluationMatchesSerial evaluates the same series from
// several goroutines at once, starting from an empty placement cache so the
// goroutines race to fill it, and compares every result with the serial
// one. Run under -race (make race) it covers the cache's read-locked hit
// path against concurrent inserts.
func TestConcurrentEvaluationMatchesSerial(t *testing.T) {
	type job struct {
		m   *topology.Machine
		p   *Profile
		cfg env.Config
		set Setting
	}
	var jobs []job
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		space := env.Space(m)
		for _, p := range []*Profile{testProfile(), taskProfile()} {
			for _, set := range append(InputSettings(m), ThreadSettings(m)...) {
				for i := 0; i < len(space); i += 97 {
					jobs = append(jobs, job{m, p, space[i], set})
				}
			}
		}
	}
	want := make([][Reps]float64, len(jobs))
	for i, j := range jobs {
		want[i] = EvaluateSeries(j.m, j.p, j.cfg, j.cfg.Key(), j.set)
	}

	placementMu.Lock()
	placementCache = make(map[placementKey]placementInfo)
	placementMu.Unlock()

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at its own offset, so they hit and fill
			// different cache entries at the same moment.
			for n := range jobs {
				i := (n + g*len(jobs)/goroutines) % len(jobs)
				j := jobs[i]
				if got := EvaluateSeries(j.m, j.p, j.cfg, j.cfg.Key(), j.set); got != want[i] {
					t.Errorf("goroutine %d, %s %s %s: concurrent %v, serial %v",
						g, j.m.Arch, j.set.Label, j.cfg, got, want[i])
					return
				}
				for rep := 0; rep < Reps; rep++ {
					if got := Evaluate(j.m, j.p, j.cfg, j.set, rep); got != want[i][rep] {
						t.Errorf("goroutine %d, %s %s %s rep %d: concurrent %v, serial %v",
							g, j.m.Arch, j.set.Label, j.cfg, rep, got, want[i][rep])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
