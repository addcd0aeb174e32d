package engine

import (
	"strings"
	"testing"

	"sae/internal/cluster"
	"sae/internal/conf"
	"sae/internal/core"
	"sae/internal/device"
)

func TestApplyConfigDefaults(t *testing.T) {
	opts := testOptions(2, core.Default{})
	if err := ApplyConfig(&opts, conf.New()); err != nil {
		t.Fatal(err)
	}
	if opts.Cluster.CPU.VirtualCores != 32 {
		t.Fatalf("vcores = %d", opts.Cluster.CPU.VirtualCores)
	}
	if opts.BlockSize != 128<<20 {
		t.Fatalf("block size = %d", opts.BlockSize)
	}
	if opts.TaskOverheadCPUSeconds != 0.02 {
		t.Fatalf("overhead = %v", opts.TaskOverheadCPUSeconds)
	}
	if opts.TaskMaxFailures != 4 {
		t.Fatalf("maxFailures = %d", opts.TaskMaxFailures)
	}
	if opts.Speculation {
		t.Fatal("speculation should default off")
	}
	if opts.JobPolicy == nil || opts.JobPolicy.Name() != "FIFO" {
		t.Fatalf("job policy = %v, want FIFO", opts.JobPolicy)
	}
	if opts.BlacklistAfter != 3 {
		t.Fatalf("blacklist streak = %d, want 3", opts.BlacklistAfter)
	}
}

func TestApplyConfigOverrides(t *testing.T) {
	reg := conf.New()
	for k, v := range map[string]string{
		"executor.cores":                            "16",
		"files.maxPartitionBytes":                   "32m",
		"task.maxFailures":                          "2",
		"speculation":                               "true",
		"speculation.quantile":                      "0.9",
		"speculation.multiplier":                    "2.0",
		"scheduler.mode":                            "FAIR",
		"blacklist.stage.maxFailedTasksPerExecutor": "0",
	} {
		if err := reg.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	opts := testOptions(2, core.Default{})
	if err := ApplyConfig(&opts, reg); err != nil {
		t.Fatal(err)
	}
	if opts.Cluster.CPU.VirtualCores != 16 || opts.Cluster.CPU.PhysicalCores != 8 {
		t.Fatalf("cores = %d/%d", opts.Cluster.CPU.VirtualCores, opts.Cluster.CPU.PhysicalCores)
	}
	if opts.BlockSize != 32<<20 {
		t.Fatalf("block = %d", opts.BlockSize)
	}
	if !opts.Speculation || opts.SpeculationQuantile != 0.9 || opts.SpeculationMultiplier != 2.0 {
		t.Fatalf("speculation = %+v", opts)
	}
	if opts.JobPolicy.Name() != "FAIR" {
		t.Fatalf("job policy = %q, want FAIR", opts.JobPolicy.Name())
	}
	if opts.BlacklistAfter != -1 {
		t.Fatalf("blacklist streak = %d, want -1 (disabled)", opts.BlacklistAfter)
	}
	// And the configured engine actually runs with the reduced cores.
	opts.Inputs = []Input{{Name: "in", Size: device.GiB}}
	rep, err := Run(opts, readJob("conf", device.GiB))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].MaxThreadsTotal != 2*16 {
		t.Fatalf("cmax total = %d, want 32", rep.Stages[0].MaxThreadsTotal)
	}
}

func TestApplyConfigBadValues(t *testing.T) {
	reg := conf.New()
	if err := reg.Set("speculation.multiplier", "0.5"); err != nil {
		t.Fatal(err)
	}
	opts := Options{Cluster: cluster.DAS5(2), Policy: core.Default{}}
	if err := ApplyConfig(&opts, reg); err == nil {
		t.Fatal("multiplier ≤ 1 accepted")
	}
	reg2 := conf.New()
	if err := reg2.Set("files.maxPartitionBytes", "banana"); err != nil {
		t.Fatal(err)
	}
	if err := ApplyConfig(&opts, reg2); err == nil {
		t.Fatal("bad size accepted")
	}
	reg3 := conf.New()
	if err := reg3.Set("scheduler.mode", "LIFO"); err != nil {
		t.Fatal(err)
	}
	if err := ApplyConfig(&opts, reg3); err == nil {
		t.Fatal("unknown scheduler mode accepted")
	}
	for _, c := range []struct{ key, val string }{
		{"executor.cores", "0"},
		{"executor.cores", "-4"},
		{"files.maxPartitionBytes", "0"},
		{"files.maxPartitionBytes", "-1"},
		{"executor.taskOverheadMillis", "-500"},
		{"task.maxFailures", "0"},
		{"task.maxFailures", "-1"},
		{"speculation.quantile", "0"},
		{"speculation.quantile", "1.5"},
		{"speculation.quantile", "-0.5"},
		{"speculation.quantile", "NaN"},
		{"blacklist.stage.maxFailedTasksPerExecutor", "-1"},
		{"shuffle.io.maxRetries", "-1"},
		{"shuffle.io.retryWait", "0s"},
		{"shuffle.io.retryWait", "-5s"},
	} {
		reg := conf.New()
		if err := reg.Set(c.key, c.val); err != nil {
			t.Fatal(err)
		}
		opts := Options{Cluster: cluster.DAS5(2), Policy: core.Default{}}
		err := ApplyConfig(&opts, reg)
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Fatalf("%s=%s: got %v, want an error naming the key", c.key, c.val, err)
		}
	}
}

// TestApplyConfigZeroTaskOverhead checks executor.taskOverheadMillis=0
// runs tasks with no launch overhead rather than the 20ms default.
func TestApplyConfigZeroTaskOverhead(t *testing.T) {
	reg := conf.New()
	if err := reg.Set("executor.taskOverheadMillis", "0"); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(2, core.Default{})
	if err := ApplyConfig(&opts, reg); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.opts.TaskOverheadCPUSeconds; got != 0 {
		t.Fatalf("task overhead = %vs, want 0", got)
	}
}
