package bench

import (
	"fmt"
	"testing"

	"sae/internal/core"
	"sae/internal/engine"
	"sae/internal/exp"
	"sae/internal/scenario"
	"sae/internal/workloads"
)

// EngineSuite benchmarks full experiment regenerations: a paper-scale
// Terasort run (with kernel event throughput attached), the gray-failure
// and multi-tenant matrices, and a parallel sweep over several figures.
func EngineSuite() []Benchmark {
	return []Benchmark{
		{Name: "EngineTerasort", Body: EngineTerasort},
		{Name: "EngineGrayFail", Body: EngineGrayFail},
		{Name: "EngineMultiTenant", Body: EngineMultiTenant},
		{Name: "SweepParallel4", Body: SweepParallel4},
	}
}

// EngineTerasort runs paper-scale Terasort under the dynamic policy and
// reports kernel event throughput and the sim-time speedup over wall time.
func EngineTerasort(b *testing.B) {
	var events uint64
	var simSec float64
	for i := 0; i < b.N; i++ {
		var eng *engine.Engine
		rep, err := exp.Default().Run(workloads.Terasort(workloads.Paper()), core.DefaultDynamic(),
			func(e *engine.Engine) { eng = e })
		if err != nil {
			b.Fatal(err)
		}
		events += eng.Kernel().FiredEvents()
		simSec += rep.Runtime.Seconds()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
		b.ReportMetric(simSec/s, "sim-s/wall-s")
	}
}

// EngineGrayFail regenerates the gray-failure matrix (Terasort under a slow
// node, a partition and corrupt replicas, for each policy) — the workload
// behind the `sae-exp grayfail` wall-clock acceptance number.
func EngineGrayFail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunBuiltin("grayfail", exp.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

// EngineMultiTenant regenerates the multi-tenancy matrix (concurrent job
// mixes under FIFO/FAIR with default and dynamic sizing).
func EngineMultiTenant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunBuiltin("multitenant", exp.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

// SweepParallel4 runs four independent figure regenerations on four workers
// through the parallel sweep runner — the fan-out path of `sae-exp
// -parallel N`.
func SweepParallel4(b *testing.B) {
	tasks := []exp.Task{
		{ID: "fig2", Run: func() (fmt.Stringer, error) { return runFig2() }},
		{ID: "fig3", Run: func() (fmt.Stringer, error) { return exp.Figure3(exp.Default()) }},
		{ID: "fig5", Run: func() (fmt.Stringer, error) { return exp.Figure5(exp.Default()) }},
		{ID: "fig7", Run: func() (fmt.Stringer, error) { return exp.Figure7(exp.Default()) }},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range exp.RunParallel(4, tasks) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func runFig2() (fmt.Stringer, error) {
	ts, _, err := exp.Figure2(exp.Default())
	return ts, err
}
