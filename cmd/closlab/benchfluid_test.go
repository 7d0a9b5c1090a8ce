package main

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// A bench-fluid row is a result only when every offered flow completed;
// anything less is marked incomplete, with its abandoned count kept.
func TestMeasuredFluidRowMarksIncomplete(t *testing.T) {
	cases := []struct {
		name           string
		flows          int
		rep            workload.Report
		wantIncomplete bool
		wantAbandoned  int
	}{
		{"all completed", 1000, workload.Report{Flows: 1000, Completed: 1000}, false, 0},
		{"capped before draining", 10_000, workload.Report{Flows: 10_000, Completed: 1051, Incomplete: 8949}, true, 0},
		{"some abandoned", 1000, workload.Report{Flows: 1000, Completed: 990, Abandoned: 10}, true, 10},
		{"nothing completed", 1000, workload.Report{Flows: 1000, Incomplete: 1000}, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			row := measuredFluidRow("packet", tc.flows, tc.rep, 20*time.Second, 2*time.Second)
			if row.Incomplete != tc.wantIncomplete {
				t.Errorf("incomplete = %v, want %v", row.Incomplete, tc.wantIncomplete)
			}
			if row.Abandoned != tc.wantAbandoned || row.Completed != tc.rep.Completed {
				t.Errorf("completed %d, abandoned %d; want %d, %d", row.Completed, row.Abandoned, tc.rep.Completed, tc.wantAbandoned)
			}
			if want := float64(tc.rep.Completed) / 2; row.FlowsPerWallSec != want {
				t.Errorf("flows per wall second = %v, want %v", row.FlowsPerWallSec, want)
			}
		})
	}
}
