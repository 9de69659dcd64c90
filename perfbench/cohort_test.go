package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func rec(c cohort, v float64) record {
	return record{
		Stamp:    stamp{Cohort: c, Commit: "x", Seed: 1},
		Workload: "nell2-solve",
		Result:   result{Metrics: map[string]metric{"iter_p50_s": {Value: v, Unit: "s"}}},
	}
}

func TestCompareRefusesAcrossCohorts(t *testing.T) {
	a := cohort{Kernels: "cpu=amd64:avx2+fma+bmi2 dense=avx2+fma alto=pext", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	for name, b := range map[string]cohort{
		"kernels":    {Kernels: "cpu=amd64:purego dense=generic alto=tables", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		"nproc":      {Kernels: a.Kernels, NProc: 4, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		"gomaxprocs": {Kernels: a.Kernels, NProc: 2, GOMAXPROCS: 1, GoVersion: "go1.24.0"},
		"go":         {Kernels: a.Kernels, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.25.0"},
	} {
		err := compareRecords(&bytes.Buffer{}, []record{rec(a, 1)}, []record{rec(b, 1)})
		if err == nil || !strings.Contains(err.Error(), "cohort") {
			t.Errorf("%s differs: compare returned %v, want a cohort refusal", name, err)
		}
	}
	var out bytes.Buffer
	if err := compareRecords(&out, []record{rec(a, 1), rec(a, 1.02)}, []record{rec(a, 1.5)}); err != nil {
		t.Fatalf("same cohort: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 49%% slower iteration should be flagged:\n%s", out.String())
	}
}

// BENCHMARK.json is generated from the definitions in metrics.go; the
// committed file must match them.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	want, err := benchmarkJSON(defaultRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: go -C perfbench run . describe ../BENCHMARK.json")
	}
}
