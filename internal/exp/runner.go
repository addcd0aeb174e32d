package exp

import (
	"fmt"
	"time"

	"sae/internal/arrival"
	"sae/internal/autoscale"
	"sae/internal/chaos"
	"sae/internal/core"
	"sae/internal/device"
	"sae/internal/engine"
	"sae/internal/engine/job"
	"sae/internal/metrics"
	"sae/internal/workloads"
)

// Runner holds the matrix primitives that compiled scenario specs run on,
// the faults, grayfail, multitenant and autoscale experiments among them.
// The primitives own the repeated plumbing — quiet calibration runs,
// per-cell engine setup, degraded-percentage accounting, arrival-schedule
// replay — and return plain cells for the result types to render.
type Runner struct {
	Setup Setup
	// Label prefixes error messages ("faults", "grayfail", a scenario name).
	Label string
}

// PolicyByName builds an executor sizing policy from its spec name:
// "default", "dynamic", or "static" / "static:N" (N I/O threads, default 8).
func PolicyByName(name string) (job.Policy, error) {
	switch {
	case name == "default":
		return core.Default{}, nil
	case name == "dynamic":
		return core.DefaultDynamic(), nil
	case name == "static":
		return core.Static{IOThreads: 8}, nil
	case len(name) > len("static:") && name[:len("static:")] == "static:":
		var n int
		if _, err := fmt.Sscanf(name[len("static:"):], "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("exp: bad static thread count in policy %q", name)
		}
		return core.Static{IOThreads: n}, nil
	default:
		return nil, fmt.Errorf("exp: unknown policy %q (want default, static[:N] or dynamic)", name)
	}
}

// SchedulerByName builds an inter-job policy from its spec name.
func SchedulerByName(name string) (engine.InterJobPolicy, error) {
	switch name {
	case "fifo", "FIFO":
		return engine.FIFO{}, nil
	case "fair", "FAIR":
		return engine.Fair{}, nil
	default:
		return nil, fmt.Errorf("exp: unknown scheduler %q (want fifo or fair)", name)
	}
}

// ChaosCell is one (policy, schedule) cell of a chaos matrix.
type ChaosCell struct {
	Policy   string
	Schedule string
	// Quiet is the policy's calibration run; Report the run under the
	// schedule (the same report for the quiet cell).
	Quiet, Report *engine.JobReport
	// DegradedPct is the runtime increase over the policy's quiet run.
	DegradedPct float64
}

// ChaosMatrix runs one workload under each policy × chaos schedule. Per
// policy a quiet calibration run executes first and fixes the schedule
// times: schedules receives that policy's quiet runtime and returns the
// plans to replay (nil plans reuse the quiet run without re-executing).
func (r Runner) ChaosMatrix(w *workloads.Spec, policies []job.Policy,
	schedules func(quiet time.Duration) []*chaos.Plan) ([]ChaosCell, error) {

	s := r.Setup
	var cells []ChaosCell
	for _, pol := range policies {
		quiet, err := s.WithFaults(nil).Run(w, pol, nil)
		if err != nil {
			return nil, fmt.Errorf("%s %s quiet: %w", r.Label, pol.Name(), err)
		}
		for _, plan := range schedules(quiet.Runtime) {
			rep := quiet
			if !plan.Empty() {
				rep, err = s.WithFaults(plan).Run(w, pol, nil)
				if err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", r.Label, pol.Name(), plan, err)
				}
			}
			cell := ChaosCell{
				Policy:   pol.Name(),
				Schedule: plan.String(),
				Quiet:    quiet,
				Report:   rep,
			}
			if quiet.Runtime > 0 {
				cell.DegradedPct = 100 * (rep.Runtime.Seconds() - quiet.Runtime.Seconds()) / quiet.Runtime.Seconds()
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// Mix is one named workload mix of a tenant matrix. Make builds fresh
// workload specs per run, so concurrent cells never share mutable state.
type Mix struct {
	Name string
	Make func() []*workloads.Spec
}

// TenantCell is one (mix, scheduler, policy) cell of a tenant matrix.
type TenantCell struct {
	Mix, Sched, Policy string
	// Reports are the per-job reports in submission order.
	Reports []*engine.JobReport
}

// TenantMatrix runs each workload mix under every inter-job scheduler ×
// sizing policy on one shared engine per cell.
func (r Runner) TenantMatrix(mixes []Mix, scheds []engine.InterJobPolicy,
	policies []job.Policy) ([]TenantCell, error) {

	var cells []TenantCell
	for _, mix := range mixes {
		for _, sched := range scheds {
			for _, pol := range policies {
				reps, err := r.Setup.RunMulti(mix.Make(), pol, sched)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s/%s: %w",
						r.Label, mix.Name, sched.Name(), pol.Name(), err)
				}
				cells = append(cells, TenantCell{
					Mix: mix.Name, Sched: sched.Name(), Policy: pol.Name(),
					Reports: reps,
				})
			}
		}
	}
	return cells, nil
}

// ArrivalTenant maps one tenant class to a concrete workload shape: a
// two-stage map/reduce job over Blocks input blocks of 64 MiB.
type ArrivalTenant struct {
	Class arrival.Class
	// Blocks is the per-job input size in 64 MiB blocks, already scaled.
	Blocks int
}

// job builds the seq-th submission of this tenant class. Inputs are shared
// per class (read-only); outputs are per-job so concurrent runs never
// collide in the DFS namespace.
func (t ArrivalTenant) job(seq int) *job.JobSpec {
	in := int64(t.Blocks) * 64 * device.MiB
	name := fmt.Sprintf("%s-%d", t.Class.Name, seq)
	return &job.JobSpec{
		Name:     name,
		Tenant:   t.Class.Name,
		Priority: t.Class.Priority,
		Stages: []*job.StageSpec{
			{ID: 0, Name: "map", InputFile: t.Class.Name + "/in",
				CPUSecondsPerTask: 0.15, ShuffleWriteBytes: in / 2},
			{ID: 1, Name: "reduce", NumTasks: 2 * t.Blocks, ShuffleFrom: []int{0},
				CPUSecondsPerTask: 0.1, OutputFile: name + "/out", OutputBytes: in / 4},
		},
	}
}

func (t ArrivalTenant) input() engine.Input {
	return engine.Input{Name: t.Class.Name + "/in", Size: int64(t.Blocks) * 64 * device.MiB}
}

// ArrivalScenario is one named arrival process of an arrival matrix.
type ArrivalScenario struct {
	Name string
	Proc arrival.Process
}

// ArrivalConfig is one provisioning configuration of an arrival matrix.
// Policies carry planner state (EWMAs, cooldown history), so Policy is a
// factory and every run gets a fresh instance.
type ArrivalConfig struct {
	Name    string
	Policy  func() autoscale.Policy
	Initial int
}

// ArrivalMatrix drives the open-loop elasticity comparison: one seeded
// arrival schedule per scenario, replayed against every provisioning
// config.
type ArrivalMatrix struct {
	Tenants   []ArrivalTenant
	Scenarios []ArrivalScenario
	Configs   []ArrivalConfig
	// Capacity is the physical fleet size (MaxNodes for every config).
	Capacity int
	// Horizon and MaxJobs bound each scenario's generated schedule.
	Horizon time.Duration
	MaxJobs int
	// SLOFactor is the p99 tolerance relative to the Baseline config's p99
	// on the same arrivals (0 selects 1.5); Baseline names that config.
	SLOFactor float64
	Baseline  string
	// Actuation knobs, 0 selecting the experiment defaults: a 10s planning
	// interval, floor of 2 nodes, 15s provision delay, 1m scale-down
	// cooldown.
	Interval          time.Duration
	MinNodes          int
	ProvisionDelay    time.Duration
	ScaleDownCooldown time.Duration
}

func (m *ArrivalMatrix) defaults() {
	if m.SLOFactor == 0 {
		m.SLOFactor = 1.5
	}
	if m.Interval == 0 {
		m.Interval = 10 * time.Second
	}
	if m.MinNodes == 0 {
		m.MinNodes = 2
	}
	if m.ProvisionDelay == 0 {
		m.ProvisionDelay = 15 * time.Second
	}
	if m.ScaleDownCooldown == 0 {
		m.ScaleDownCooldown = time.Minute
	}
}

// ArrivalMatrix replays each scenario's seeded schedule against every
// provisioning config and assembles the per-tenant latency result.
func (r Runner) ArrivalMatrix(m ArrivalMatrix) (*AutoscaleResult, error) {
	m.defaults()
	classes := make([]arrival.Class, len(m.Tenants))
	byClass := make(map[string]ArrivalTenant, len(m.Tenants))
	for i, t := range m.Tenants {
		classes[i] = t.Class
		byClass[t.Class.Name] = t
	}
	baseline := -1
	for i, cfg := range m.Configs {
		if cfg.Name == m.Baseline {
			baseline = i
		}
	}
	if baseline < 0 {
		return nil, fmt.Errorf("%s: SLO baseline config %q not in the config list", r.Label, m.Baseline)
	}

	res := &AutoscaleResult{SLOFactor: m.SLOFactor, Baseline: m.Baseline}
	for _, sc := range m.Scenarios {
		// One schedule per scenario, replayed against every config — the
		// comparison isolates provisioning, not traffic noise.
		sched := arrival.Spec{
			Proc:    sc.Proc,
			Classes: classes,
			Seed:    r.Setup.Seed,
			Horizon: m.Horizon,
			MaxJobs: m.MaxJobs,
		}.Generate()
		if len(sched) == 0 {
			return nil, fmt.Errorf("%s: %s generated no arrivals", r.Label, sc.Name)
		}
		var rows []AutoscaleRow
		for _, cfg := range m.Configs {
			row, err := r.replayArrivals(sc.Name, cfg, m, sched, byClass)
			if err != nil {
				return nil, fmt.Errorf("%s %s/%s: %w", r.Label, sc.Name, cfg.Name, err)
			}
			rows = append(rows, row)
		}
		// SLO verdicts are relative to the baseline config on the same
		// arrivals.
		base := rows[baseline].P99Sec
		for i := range rows {
			rows[i].SLOMet = rows[i].P99Sec <= m.SLOFactor*base
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// replayArrivals replays one arrival schedule against one cluster config.
func (r Runner) replayArrivals(scenario string, cfg ArrivalConfig, m ArrivalMatrix,
	sched []arrival.Arrival, byClass map[string]ArrivalTenant) (AutoscaleRow, error) {

	s := r.Setup
	big := s
	big.Nodes = m.Capacity
	var inputs []engine.Input
	for _, t := range byClass {
		inputs = append(inputs, t.input())
	}
	// Map iteration order is random; keep the DFS layout deterministic.
	for i := 1; i < len(inputs); i++ {
		for j := i; j > 0 && inputs[j].Name < inputs[j-1].Name; j-- {
			inputs[j], inputs[j-1] = inputs[j-1], inputs[j]
		}
	}
	opts := engine.Options{
		Cluster:         big.clusterConfig(),
		BlockSize:       64 * device.MiB,
		Policy:          core.Default{},
		JobPolicy:       engine.Fair{},
		Inputs:          inputs,
		Trace:           s.Trace,
		TraceFormat:     s.TraceFormat,
		Metrics:         s.Metrics,
		MetricsInterval: s.MetricsInterval,
		Audit:           s.Audit,
		Autoscale: &engine.AutoscaleConfig{
			Policy:            cfg.Policy(),
			Interval:          m.Interval,
			InitialNodes:      cfg.Initial,
			MinNodes:          m.MinNodes,
			MaxNodes:          m.Capacity,
			ProvisionDelay:    m.ProvisionDelay,
			ScaleDownCooldown: m.ScaleDownCooldown,
		},
	}
	e, err := engine.NewEngine(opts)
	if err != nil {
		return AutoscaleRow{}, err
	}
	handles := make([]*engine.JobHandle, len(sched))
	for i, a := range sched {
		t, ok := byClass[a.Class.Name]
		if !ok {
			return AutoscaleRow{}, fmt.Errorf("unknown tenant class %q", a.Class.Name)
		}
		if handles[i], err = e.SubmitAt(a.At, t.job(a.Seq)); err != nil {
			return AutoscaleRow{}, err
		}
	}
	if err := e.Wait(); err != nil {
		return AutoscaleRow{}, err
	}

	byName := map[string][]*engine.JobReport{}
	var all []time.Duration
	for _, h := range handles {
		rep, err := h.Report()
		if err != nil {
			return AutoscaleRow{}, err
		}
		byName[rep.Tenant] = append(byName[rep.Tenant], rep)
		all = append(all, rep.Runtime)
	}
	ar := e.AutoscaleReport()
	row := AutoscaleRow{
		Arrivals:   scenario,
		Config:     cfg.Name,
		Jobs:       len(sched),
		NodeHours:  ar.NodeSeconds / 3600,
		PeakNodes:  ar.PeakNodes,
		FinalNodes: ar.FinalNodes,
		ScaleUps:   ar.Activations,
		Drains:     ar.Drains,
		P99Sec:     metrics.Quantiles(all, 0.99)[0].Seconds(),
	}
	// Class rows in a fixed order (interactive before batch) for stable
	// rendering and goldens.
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		reps := byName[name]
		var lat []time.Duration
		var queue time.Duration
		for _, rep := range reps {
			lat = append(lat, rep.Runtime)
			queue += rep.QueueDelay
		}
		q := metrics.Quantiles(lat, 0.5, 0.95, 0.99)
		row.Classes = append(row.Classes, AutoscaleClassRow{
			Class:        name,
			Jobs:         len(reps),
			P50Sec:       q[0].Seconds(),
			P95Sec:       q[1].Seconds(),
			P99Sec:       q[2].Seconds(),
			MeanQueueSec: (queue / time.Duration(len(reps))).Seconds(),
		})
	}
	return row, nil
}
