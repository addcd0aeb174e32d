package engine

import (
	"fmt"

	"sae/internal/conf"
)

// ApplyConfig folds the wired parameters of a configuration registry into
// the engine options, mirroring how the paper's drop-in executor honours
// the stock Spark configuration surface (Table 1). Only parameters marked
// Wired in the catalogue have an effect; everything else is accepted for
// compatibility.
func ApplyConfig(opts *Options, reg *conf.Registry) error {
	cores, err := reg.GetInt("executor.cores")
	if err != nil {
		return err
	}
	if cores <= 0 {
		return fmt.Errorf("engine: executor.cores must be positive, got %d", cores)
	}
	// Virtual cores are SMT pairs over physical cores, as on the paper's
	// nodes (32 virtual / 16 physical).
	opts.Cluster.CPU.VirtualCores = cores
	opts.Cluster.CPU.PhysicalCores = max(1, cores/2)
	if opts.BlockSize, err = reg.GetBytes("files.maxPartitionBytes"); err != nil {
		return err
	}
	if opts.BlockSize <= 0 {
		return fmt.Errorf("engine: files.maxPartitionBytes must be positive, got %d", opts.BlockSize)
	}
	overhead, err := reg.GetInt("executor.taskOverheadMillis")
	if err != nil {
		return err
	}
	switch {
	case overhead < 0:
		return fmt.Errorf("engine: executor.taskOverheadMillis must not be negative, got %d", overhead)
	case overhead == 0:
		opts.TaskOverheadCPUSeconds = -1 // no overhead
	default:
		opts.TaskOverheadCPUSeconds = float64(overhead) / 1000
	}
	if opts.TaskMaxFailures, err = reg.GetInt("task.maxFailures"); err != nil {
		return err
	}
	if opts.TaskMaxFailures <= 0 {
		return fmt.Errorf("engine: task.maxFailures must be positive, got %d", opts.TaskMaxFailures)
	}
	if opts.Speculation, err = reg.GetBool("speculation"); err != nil {
		return err
	}
	if opts.SpeculationQuantile, err = reg.GetFloat("speculation.quantile"); err != nil {
		return err
	}
	if !(opts.SpeculationQuantile > 0 && opts.SpeculationQuantile <= 1) {
		return fmt.Errorf("engine: speculation.quantile must be in (0, 1], got %v", opts.SpeculationQuantile)
	}
	if opts.SpeculationMultiplier, err = reg.GetFloat("speculation.multiplier"); err != nil {
		return err
	}
	if opts.SpeculationMultiplier <= 1 {
		return fmt.Errorf("engine: speculation.multiplier must exceed 1, got %v", opts.SpeculationMultiplier)
	}
	mode, err := reg.Get("scheduler.mode")
	if err != nil {
		return err
	}
	switch mode {
	case "FIFO":
		opts.JobPolicy = FIFO{}
	case "FAIR":
		opts.JobPolicy = Fair{}
	default:
		return fmt.Errorf("engine: scheduler.mode must be FIFO or FAIR, got %q", mode)
	}
	streak, err := reg.GetInt("blacklist.stage.maxFailedTasksPerExecutor")
	if err != nil {
		return err
	}
	switch {
	case streak < 0:
		return fmt.Errorf("engine: blacklist.stage.maxFailedTasksPerExecutor must not be negative, got %d", streak)
	case streak == 0:
		opts.BlacklistAfter = -1 // disabled
	default:
		opts.BlacklistAfter = streak
	}
	if opts.HeartbeatInterval, err = reg.GetDuration("executor.heartbeatInterval"); err != nil {
		return err
	}
	if opts.HeartbeatInterval <= 0 {
		return fmt.Errorf("engine: executor.heartbeatInterval must be positive, got %v", opts.HeartbeatInterval)
	}
	retries, err := reg.GetInt("shuffle.io.maxRetries")
	if err != nil {
		return err
	}
	switch {
	case retries < 0:
		return fmt.Errorf("engine: shuffle.io.maxRetries must not be negative, got %d", retries)
	case retries == 0:
		opts.FetchMaxRetries = -1 // disabled
	default:
		opts.FetchMaxRetries = retries
	}
	if opts.FetchRetryWait, err = reg.GetDuration("shuffle.io.retryWait"); err != nil {
		return err
	}
	if opts.FetchRetryWait <= 0 {
		return fmt.Errorf("engine: shuffle.io.retryWait must be positive, got %v", opts.FetchRetryWait)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
