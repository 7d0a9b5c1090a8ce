package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/topology"
	"repro/internal/workload"
)

// fluidBenchRow is one (engine, flow count) measurement.
type fluidBenchRow struct {
	Engine string `json:"engine"`
	Flows  int    `json:"flows"`
	// Skipped rows were not run (the packet engine does not scale to the
	// largest counts); Reason says why.
	Skipped bool   `json:"skipped,omitempty"`
	Reason  string `json:"reason,omitempty"`

	Completed int `json:"completed,omitempty"`
	Abandoned int `json:"abandoned,omitempty"`
	// Incomplete marks a run that did not complete every offered flow
	// (abandoned, or still unfinished at the trial cap). Its throughput
	// is not a result: it measures a collapsed run, and no speedup may be
	// quoted against it.
	Incomplete     bool `json:"incomplete,omitempty"`
	PeakConcurrent int  `json:"peak_concurrent,omitempty"`
	// VirtualSeconds is the simulated time the trial covered; WallSeconds
	// the real time it took.
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`
	WallSeconds    float64 `json:"wall_seconds,omitempty"`
	// FlowsPerWallSec is the headline throughput: completed flows per
	// second of real time.
	FlowsPerWallSec float64 `json:"flows_per_wall_sec,omitempty"`
	// NsWallPerSimSec is the simulation cost: wall nanoseconds per
	// simulated second.
	NsWallPerSimSec int64 `json:"ns_wall_per_sim_sec,omitempty"`
}

// fluidBenchFile is the BENCH_fluid.json schema.
type fluidBenchFile struct {
	GeneratedBy string          `json:"generated_by"`
	GoVersion   string          `json:"go"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	Pods        int             `json:"pods"`
	Results     []fluidBenchRow `json:"results"`
}

// measuredFluidRow fills one row from a finished trial: the report's
// completion counts, the incomplete mark, and the wall-time rates.
func measuredFluidRow(engine string, flows int, rep workload.Report, virtual, wall time.Duration) fluidBenchRow {
	row := fluidBenchRow{
		Engine:         engine,
		Flows:          flows,
		Completed:      rep.Completed,
		Abandoned:      rep.Abandoned,
		Incomplete:     rep.Completed < flows,
		PeakConcurrent: rep.PeakConcurrent,
		VirtualSeconds: virtual.Seconds(),
		WallSeconds:    wall.Seconds(),
	}
	if wall > 0 {
		row.FlowsPerWallSec = float64(rep.Completed) / wall.Seconds()
	}
	if virtual > 0 {
		row.NsWallPerSimSec = int64(float64(wall.Nanoseconds()) / virtual.Seconds())
	}
	return row
}

// benchFluid measures workload throughput of the packet engine against the
// hybrid flow-level engine at 10^3..10^6 flows on one fabric and writes
// BENCH_fluid.json. Every row uses fixed 100 kB flows arriving over a ~2 s
// window, so rows differ only in scale. The packet rows stop at 10^4 flows:
// per-packet event cost makes the larger counts impractical, which is the
// point of the fluid engine. Wall-clock reads here are the measurement
// itself, not simulation state.
func benchFluid(spec topology.Spec, seed int64, path string) error {
	out := fluidBenchFile{
		GeneratedBy: "closlab -experiment bench-fluid",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Pods:        spec.Pods,
	}
	emitf("Flow-level engine — %d-PoD MR-MTP fabric, 100 kB flows (GOMAXPROCS=%d):\n",
		spec.Pods, out.GOMAXPROCS)
	emitf("%8s %9s %11s %11s %13s %15s\n", "engine", "flows", "virtual_s", "wall_s", "flows/s", "ns/sim_s")
	counts := []int{1_000, 10_000, 100_000, 1_000_000}
	for _, engine := range []workload.Mode{workload.ModePacket, workload.ModeHybrid} {
		for _, n := range counts {
			row := fluidBenchRow{Engine: engine.String(), Flows: n}
			if engine == workload.ModePacket && n > 10_000 {
				row.Skipped = true
				row.Reason = "per-packet event cost: impractical beyond 10^4 flows"
				out.Results = append(out.Results, row)
				emitf("%8s %9d   skipped (%s)\n", row.Engine, n, row.Reason)
				continue
			}
			w := harness.DefaultWorkloadConfig()
			w.Engine = engine
			w.Flows = n
			w.Sizes = workload.FixedSize(100_000)
			w.MeanArrival = 2 * time.Second / time.Duration(n)
			w.MaxRun = 1200 * time.Second
			if n >= 100_000 {
				// Coarser rate epochs and telemetry keep tick count and
				// sample memory bounded as the virtual drain stretches to
				// hundreds of seconds.
				w.RateInterval = 50 * time.Millisecond
				w.SampleInterval = time.Second
			}
			opts := harness.DefaultOptions(spec, harness.ProtoMRMTP, seed)
			start := time.Now() //simlint:deterministic benchmark harness measuring real elapsed time
			res, err := harness.RunWorkload(opts, w)
			if err != nil {
				return fmt.Errorf("%s/%d flows: %w", engine, n, err)
			}
			wall := time.Since(start) //simlint:deterministic benchmark harness measuring real elapsed time
			var virtual time.Duration
			for _, sr := range res.Series {
				if len(sr.Samples) > 0 {
					if at := sr.Samples[len(sr.Samples)-1].At; at > virtual {
						virtual = at
					}
				}
			}
			row = measuredFluidRow(row.Engine, n, res.Report, virtual, wall)
			out.Results = append(out.Results, row)
			note := ""
			if row.Incomplete {
				note = fmt.Sprintf("  INCOMPLETE: %d of %d flows completed, not a result", row.Completed, n)
			}
			emitf("%8s %9d %11.2f %11.2f %13.0f %15d%s\n",
				row.Engine, n, row.VirtualSeconds, row.WallSeconds, row.FlowsPerWallSec, row.NsWallPerSimSec, note)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	emitf("wrote %s\n\n", path)
	return nil
}
