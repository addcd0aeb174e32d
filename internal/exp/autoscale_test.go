package exp_test

import (
	"testing"

	"sae/internal/exp"
)

func TestAutoscaleMatrix(t *testing.T) {
	res := runBuiltin(t, "autoscale", exp.Default().WithScale(0.05)).(*exp.AutoscaleResult)
	// 2 arrival scenarios × 4 provisioning configs.
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	for _, arrivals := range []string{"poisson", "bursty"} {
		for _, config := range []string{"static-small", "static-large", "reactive", "adaptive"} {
			row, ok := res.Get(arrivals, config)
			if !ok {
				t.Fatalf("missing row %s/%s", arrivals, config)
			}
			if row.Jobs <= 0 || row.P99Sec <= 0 || row.NodeHours <= 0 {
				t.Fatalf("%s/%s: degenerate row %+v", arrivals, config, row)
			}
			var classJobs int
			for _, c := range row.Classes {
				if c.Jobs <= 0 || c.P99Sec < c.P50Sec {
					t.Fatalf("%s/%s: bad class row %+v", arrivals, config, c)
				}
				classJobs += c.Jobs
			}
			if classJobs != row.Jobs {
				t.Fatalf("%s/%s: class jobs sum %d != %d", arrivals, config, classJobs, row.Jobs)
			}
		}
		// The large static fleet is its own SLO baseline, so it always meets it.
		large, _ := res.Get(arrivals, "static-large")
		if !large.SLOMet {
			t.Fatalf("%s/static-large misses its own SLO baseline", arrivals)
		}
		// Elastic configs must cost less than permanently running the full fleet.
		for _, config := range []string{"reactive", "adaptive"} {
			row, _ := res.Get(arrivals, config)
			if row.NodeHours >= large.NodeHours {
				t.Fatalf("%s/%s node-hours %.3f not below static-large %.3f",
					arrivals, config, row.NodeHours, large.NodeHours)
			}
		}
	}
	if _, ok := res.CSVTables()["autoscale"]; !ok {
		t.Fatal("CSVTables missing autoscale table")
	}
}
