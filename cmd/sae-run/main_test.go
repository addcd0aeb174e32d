package main

import (
	"strings"
	"testing"
)

func TestRunSmallWorkload(t *testing.T) {
	err := run([]string{"-workload", "aggregation", "-scale", "0.05", "-policy", "static", "-threads", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithConfOverrides(t *testing.T) {
	err := run([]string{
		"-workload", "join", "-scale", "0.05",
		"-conf", "speculation=true", "-conf", "executor.cores=8",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	err := run([]string{
		"-workload", "terasort", "-scale", "0.05",
		"-faults", "crash@20s+10s,flaky:0.02",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must contain ("" = any error)
	}{
		{[]string{"-workload", "nope"}, ""},
		{[]string{"-policy", "nope", "-scale", "0.01"}, ""},
		{[]string{"-conf", "malformed"}, ""},
		{[]string{"-conf", "no.such.key=1"}, ""},
		{[]string{"-faults", "bogus@@"}, ""},
		{[]string{"-scenario", "no-such-file.yaml"}, ""},
		{[]string{"-scenario", "../../scenarios/faults.yaml", "-workload", "terasort"}, ""},
		{[]string{"-scenario", "../../scenarios/faults.yaml", "-faults", "crash@20s"}, ""},
		{[]string{"-nodes", "0"}, "-nodes"},
		{[]string{"-nodes", "-2"}, "-nodes"},
		{[]string{"-scenario", "../../scenarios/faults.yaml", "-nodes", "0"}, "-nodes"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-policy", "static", "-threads", "0"}, "-threads"},
		{[]string{"-policy", "static", "-threads", "-4"}, "-threads"},
		{[]string{"-conf", "executor.cores=0"}, "executor.cores"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("args %v accepted", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %s", c.args, err, c.want)
		}
	}
}

func TestRunScenario(t *testing.T) {
	err := run([]string{"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.05"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioConfOverride(t *testing.T) {
	err := run([]string{
		"-scenario", "../../scenarios/terasort-crash.yaml", "-scale", "0.05",
		"-conf", "shuffle.io.maxRetries=9",
	})
	if err != nil {
		t.Fatal(err)
	}
}
