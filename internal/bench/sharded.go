package bench

import (
	"testing"
	"time"

	"sae/internal/chaos"
	"sae/internal/cluster"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
)

// matrixNodes is the cluster size of the large-cluster grayfail matrix.
const matrixNodes = 256

// matrixRun builds the matrix run: a 256-node scan under slowdowns on every
// 32nd node, two heartbeat-dropping partitions and transient task I/O
// faults, with the control latency raised to 10ms.
func matrixRun() (engine.Options, *job.JobSpec) {
	cfg := cluster.DAS5(matrixNodes)
	cfg.Variability = device.DefaultVariability(7)
	cfg.ControlLatency = 10 * time.Millisecond
	plan := &chaos.Plan{
		Name:          "sharded-matrix",
		Seed:          7,
		TaskFaultRate: 0.02,
	}
	for ex := 1; ex < matrixNodes; ex += 32 {
		plan.Slows = append(plan.Slows, chaos.Slow{Exec: ex, At: 5 * time.Second, Factor: 3})
	}
	plan.Partitions = []chaos.Partition{
		{Exec: 2, At: 8 * time.Second, Duration: 40 * time.Second},
		{Exec: matrixNodes - 3, At: 12 * time.Second, Duration: 40 * time.Second},
	}
	opts := engine.Options{
		Cluster:   cfg,
		BlockSize: 64 * device.MiB,
		Policy:    core.Default{},
		Faults:    plan,
		Inputs:    []engine.Input{{Name: "in", Size: matrixNodes * 24 * 64 * device.MiB}},
	}
	spec := &job.JobSpec{
		Name: "sharded-matrix",
		Stages: []*job.StageSpec{
			{ID: 0, Name: "scan", InputFile: "in", CPUSecondsPerTask: 0.35},
		},
	}
	return opts, spec
}

// ShardedMatrix1 is the serial 256-executor grayfail matrix: one
// large-cluster gray-failure scan per iteration on the single kernel (~6k
// tasks). Only the run loop is timed. The name is historical and kept so
// its committed numbers stay comparable.
func ShardedMatrix1(b *testing.B) {
	var events uint64
	var simSec float64
	for i := 0; i < b.N; i++ {
		// Keep model construction (cluster, DFS placement, executor
		// spawn) off the clock: ns/op measures the event loop.
		b.StopTimer()
		opts, spec := matrixRun()
		e, err := engine.NewEngine(opts)
		if err != nil {
			b.Fatal(err)
		}
		h, err := e.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Wait(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rep, err := h.Report()
		if err != nil {
			b.Fatal(err)
		}
		events += e.FiredEvents()
		simSec += rep.Runtime.Seconds()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
		b.ReportMetric(simSec/s, "sim-s/wall-s")
	}
}
