package exp_test

import (
	"fmt"
	"strings"
	"testing"

	"sae/internal/exp"
	"sae/internal/scenario"
)

// runBuiltin runs the committed scenario spec name at setup s: the faults,
// grayfail, multitenant and autoscale experiments are those specs.
func runBuiltin(t *testing.T, name string, s exp.Setup) fmt.Stringer {
	t.Helper()
	res, err := scenario.RunBuiltin(name, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFaultsMatrix(t *testing.T) {
	res := runBuiltin(t, "faults", exp.Default().WithScale(0.04)).(*exp.FaultsResult)
	// 3 policies × 4 schedules.
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Seconds <= 0 {
			t.Fatalf("row %+v has non-positive runtime", row)
		}
		switch {
		case row.Schedule == "quiet":
			if row.LostExecutors != 0 || row.DegradedPct != 0 {
				t.Fatalf("quiet row degraded: %+v", row)
			}
		case strings.HasPrefix(row.Schedule, "crash"):
			if row.LostExecutors != 1 {
				t.Fatalf("crash row lost %d executors: %+v", row.LostExecutors, row)
			}
			if row.Requeued == 0 {
				t.Fatalf("crash row requeued nothing: %+v", row)
			}
		}
	}
	// The acceptance row: the dynamic policy completes a crash-and-restart
	// Terasort with exactly one loss.
	found := false
	for _, row := range res.Rows {
		if row.Policy == "dynamic" && strings.Contains(row.Schedule, "+") {
			found = true
			if row.LostExecutors != 1 {
				t.Fatalf("dynamic crash-restart lost %d executors", row.LostExecutors)
			}
		}
	}
	if !found {
		t.Fatal("no dynamic crash-restart row")
	}
	if !strings.Contains(res.String(), "schedule") {
		t.Fatal("String() missing header")
	}
	if _, ok := res.CSVTables()["faults"]; !ok {
		t.Fatal("CSVTables missing faults table")
	}
}
