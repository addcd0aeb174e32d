package exp

import (
	"fmt"
	"strings"
)

// AutoscaleClassRow is one tenant class's latency summary under one
// (arrival process, cluster config) cell.
type AutoscaleClassRow struct {
	Class string
	Jobs  int
	// P50/P95/P99 are job sojourn-time percentiles in seconds (submission
	// to completion — the per-tenant SLO latency).
	P50Sec, P95Sec, P99Sec float64
	// MeanQueueSec is the mean delay before a job's first task launched.
	MeanQueueSec float64
}

// AutoscaleRow is one (arrival process, cluster config) cell.
type AutoscaleRow struct {
	Arrivals string
	Config   string
	Jobs     int
	// NodeHours is the run's provisioned cost (integral of live nodes).
	NodeHours float64
	// PeakNodes/FinalNodes bracket the fleet; ScaleUps/Drains count actions.
	PeakNodes, FinalNodes int
	ScaleUps, Drains      int
	// P99Sec is the overall p99 job latency; SLOMet is whether it stayed
	// within the SLO factor of the baseline config's p99 for the same
	// arrivals.
	P99Sec float64
	SLOMet bool
	// Classes breaks latency down per tenant class.
	Classes []AutoscaleClassRow
}

// AutoscaleResult compares static and elastic provisioning under open-loop
// traffic: the same seeded arrival schedule is replayed against a small
// static fleet, a large static fleet, a threshold autoscaler, and the
// MAPE-K adaptive autoscaler, reporting per-tenant latency percentiles and
// node-hours. The question mirrors the paper's, one level up: can a
// self-adaptive capacity estimate deliver near-static-large p99 latency at
// a fraction of its cost, where a static small fleet drowns in bursts?
type AutoscaleResult struct {
	Rows []AutoscaleRow
	// SLOFactor is the p99 tolerance the verdicts were computed against;
	// Baseline names the config the tolerance is relative to.
	SLOFactor float64
	Baseline  string
}

// Get returns the row for (arrivals, config).
func (r *AutoscaleResult) Get(arrivals, config string) (AutoscaleRow, bool) {
	for _, row := range r.Rows {
		if row.Arrivals == arrivals && row.Config == config {
			return row, true
		}
	}
	return AutoscaleRow{}, false
}

func (r *AutoscaleResult) String() string {
	var b strings.Builder
	b.WriteString("Autoscale — open-loop arrivals × provisioning config (p99 SLO = ")
	fmt.Fprintf(&b, "%.1f× %s)\n", r.SLOFactor, r.Baseline)
	fmt.Fprintf(&b, "  %-8s %-13s %5s %10s %5s %9s %7s %8s %5s\n",
		"arrivals", "config", "jobs", "node-hours", "peak", "scale-ups", "drains", "p99", "SLO")
	for _, row := range r.Rows {
		verdict := "met"
		if !row.SLOMet {
			verdict = "miss"
		}
		fmt.Fprintf(&b, "  %-8s %-13s %5d %10.2f %5d %9d %7d %7.1fs %5s\n",
			row.Arrivals, row.Config, row.Jobs, row.NodeHours, row.PeakNodes,
			row.ScaleUps, row.Drains, row.P99Sec, verdict)
		for _, c := range row.Classes {
			fmt.Fprintf(&b, "    %-11s %3d job(s)  p50 %6.1fs  p95 %6.1fs  p99 %6.1fs  queue %6.1fs\n",
				c.Class, c.Jobs, c.P50Sec, c.P95Sec, c.P99Sec, c.MeanQueueSec)
		}
	}
	return b.String()
}

// CSVTables implements Tabular.
func (r *AutoscaleResult) CSVTables() map[string][][]string {
	rows := [][]string{{"arrivals", "config", "class", "jobs",
		"p50_sec", "p95_sec", "p99_sec", "mean_queue_sec",
		"node_hours", "peak_nodes", "scale_ups", "drains", "slo_met"}}
	for _, row := range r.Rows {
		met := "0"
		if row.SLOMet {
			met = "1"
		}
		for _, c := range row.Classes {
			rows = append(rows, []string{
				row.Arrivals, row.Config, c.Class, fmt.Sprintf("%d", c.Jobs),
				ftoa(c.P50Sec), ftoa(c.P95Sec), ftoa(c.P99Sec), ftoa(c.MeanQueueSec),
				ftoa(row.NodeHours), fmt.Sprintf("%d", row.PeakNodes),
				fmt.Sprintf("%d", row.ScaleUps), fmt.Sprintf("%d", row.Drains), met,
			})
		}
	}
	return map[string][][]string{"autoscale": rows}
}
