package exp

import "sae/internal/workloads"

// FaultsRow is one (policy, schedule) cell of the fault-tolerance matrix.
type FaultsRow struct {
	Policy   string
	Schedule string
	Seconds  float64
	// DegradedPct is the runtime increase over the same policy's quiet
	// run.
	DegradedPct       float64
	LostExecutors     int
	ResubmittedStages int
	Requeued          int
	Retries           int
	RecoveredGiB      float64
}

// FaultsResult is the fault-tolerance experiment: Terasort under
// deterministic chaos schedules, for each executor-sizing policy. It
// answers two questions the paper leaves open: does the adaptive sizing
// machinery survive the failure modes a real cluster throws at it
// (crashes, crash-restarts, transient I/O faults), and how much of the
// policy's advantage survives a degraded run.
type FaultsResult struct {
	Rows []FaultsRow
}

// NewFaultsResult assembles the fault-tolerance rows from chaos-matrix
// cells.
func NewFaultsResult(cells []ChaosCell) *FaultsResult {
	res := &FaultsResult{}
	for _, c := range cells {
		row := FaultsRow{
			Policy:            c.Policy,
			Schedule:          c.Schedule,
			Seconds:           c.Report.Runtime.Seconds(),
			DegradedPct:       c.DegradedPct,
			LostExecutors:     c.Report.LostExecutors,
			ResubmittedStages: c.Report.ResubmittedStages,
			RecoveredGiB:      workloads.GiB(c.Report.RecoveredBytes),
		}
		for _, st := range c.Report.Stages {
			row.Requeued += st.Requeued
			row.Retries += st.Retries
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Get returns the row for (policy, schedule).
func (r *FaultsResult) Get(policy, schedule string) (FaultsRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == policy && row.Schedule == schedule {
			return row, true
		}
	}
	return FaultsRow{}, false
}

func (r *FaultsResult) table() *Table {
	t := &Table{
		Title: "Faults — Terasort under deterministic chaos schedules",
		Name:  "faults",
		Columns: []Column{
			{Key: "policy", Head: "policy", HeadFmt: "%-16s", CellFmt: "%-16s"},
			{Key: "schedule", Head: "schedule", HeadFmt: "%-22s", CellFmt: "%-22s"},
			{Key: "seconds", Head: "runtime", HeadFmt: "%9s", CellFmt: "%8.1fs"},
			{Key: "degraded_pct", Head: "degraded", HeadFmt: "%9s", CellFmt: "%+8.1f%%"},
			{Key: "lost_executors", Head: "lost", HeadFmt: "%5s", CellFmt: "%5d"},
			{Key: "resubmitted_stages", Head: "resub", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "requeued", Head: "requeue", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "retries", Head: "retries", HeadFmt: "%7s", CellFmt: "%7d"},
			{Key: "recovered_gib", Head: "recovered", HeadFmt: "%9s", CellFmt: "%8.2fG"},
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []any{
			row.Policy, row.Schedule, row.Seconds, row.DegradedPct,
			row.LostExecutors, row.ResubmittedStages, row.Requeued,
			row.Retries, row.RecoveredGiB,
		})
	}
	return t
}

func (r *FaultsResult) String() string { return r.table().String() }

// CSVTables implements Tabular.
func (r *FaultsResult) CSVTables() map[string][][]string { return r.table().CSVTables() }
