// Command perfbench is the repository's benchmark. It runs one named
// workload of simulated trials through the public internal/harness entry
// points, back to back on one goroutine (harness.Workers = 1), for a fixed
// wall-clock time; checks every trial's simulated output; and prints
// host-time metrics (process CPU time, see cpuTime) by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench -workload paper-grid -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the same inputs untraced and then traced (spans, pprof labels, a CPU
// profile, and replays of trials on wrapped fabrics) and reports the
// per-layer metrics. NOTES.md describes the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the result file, spans and profile ("" writes none)
	cfg      config
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-grid, packet-fct, hybrid-million or fault-campaign")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the simulated inputs (harness.Options.Seed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure for; every run completes at least two passes")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the result file, spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	return report(o, stdout, stderr)
}

// report runs the benchmark, prints the summary line and returns the exit
// code: 0 only when every operation succeeded and every check held.
func report(o options, stdout, stderr io.Writer) int {
	s, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !s.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or a check did not hold\n", s.Failed, s.Attempted)
		return 1
	}
	return 0
}

// cpuTime is the CPU time the process has used, user and system, over all
// its threads (so the garbage collector's work counts). It is the host time
// every metric is measured in: on a virtual machine whose hypervisor steals
// the CPU for other guests, wall-clock time also counts the theft, which
// varied by up to 30% of a pass on the host NOTES.md describes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passResult is one pass over a workload's trials.
type passResult struct {
	times     []time.Duration // host (CPU) time of each trial
	host      time.Duration   // their sum
	completed int             // completed flows
	attempted int             // trials + flows
	failed    int             // failed trials + flows not completed + failed pass checks
	problems  []string
	digest    string
	outs      []outcome
}

// runPass runs every trial once, back to back, and checks the results.
// Records are folded into the digest and dropped unless keep is set.
func runPass(w workloadDef, trials []trial, tr *tracer, keep bool) passResult {
	var p passResult
	h := sha256.New()
	for _, t := range trials {
		runtime.GC() // start every trial from a collected heap, untimed
		var oc outcome
		var err error
		start := cpuTime()
		tr.span(t.call, func() { oc, err = t.run() })
		took := cpuTime() - start
		oc.name = t.name
		if err != nil {
			oc.problems = append(oc.problems, "error: "+err.Error())
			oc.completed = 0
		}
		rec, jerr := json.Marshal(oc.record)
		if jerr != nil {
			oc.problems = append(oc.problems, "result does not encode: "+jerr.Error())
		}
		fmt.Fprintf(h, "%s\n%s\n", t.name, rec)

		p.times = append(p.times, took)
		p.host += took
		p.completed += oc.completed
		p.attempted += 1 + oc.flows
		p.failed += oc.flows - oc.completed
		if len(oc.problems) > 0 {
			p.failed++
			for _, pr := range oc.problems {
				p.problems = append(p.problems, t.name+": "+pr)
			}
		}
		if !keep {
			oc.record = nil
		}
		p.outs = append(p.outs, oc)
	}
	if w.checkPass != nil {
		for _, pr := range w.checkPass(p.outs) {
			p.failed++
			p.problems = append(p.problems, pr)
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// runPasses repeats untraced passes until the host time spent reaches
// seconds, and at least min times.
func runPasses(w workloadDef, trials []trial, seconds float64, min int) []passResult {
	var out []passResult
	for start := time.Now(); len(out) < min || time.Since(start).Seconds() < seconds; {
		out = append(out, runPass(w, trials, nil, false))
	}
	return out
}

// setupTimes is the median host time of bringing up every fabric a
// workload uses, split into Build and WarmUp.
type setupTimes struct{ total, build, warmup float64 }

// measureSetup builds and warms every fabric, over and over until at least
// minReps repetitions and minSetupSeconds have passed, and returns the
// medians over repetitions of the per-repetition sums.
func measureSetup(fabrics []harness.Options) (setupTimes, error) {
	var total, build, warm []float64
	for start := time.Now(); len(total) < minReps || time.Since(start).Seconds() < minSetupSeconds; {
		runtime.GC()
		var b, wu time.Duration
		for _, o := range fabrics {
			t0 := cpuTime()
			f, err := harness.Build(o)
			if err != nil {
				return setupTimes{}, fmt.Errorf("setup %s: %w", label(o), err)
			}
			t1 := cpuTime()
			if err := f.WarmUp(harness.WarmupTime); err != nil {
				return setupTimes{}, fmt.Errorf("setup %s: %w", label(o), err)
			}
			b += t1 - t0
			wu += cpuTime() - t1
		}
		build = append(build, b.Seconds())
		warm = append(warm, wu.Seconds())
		total = append(total, (b + wu).Seconds())
	}
	return setupTimes{total: median(total), build: median(build), warmup: median(warm)}, nil
}

// A run sets up its fabrics at least minReps times and for at least
// minSetupSeconds; setup_s is the median.
const (
	minReps         = 15
	minSetupSeconds = 1.5
)

func run(o options, stdout io.Writer) (summary, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return summary{}, err
	}
	harness.Workers = 1
	meta := hostMeta(o)
	metaLine, _ := json.Marshal(map[string]any{"meta": meta}) // strings, numbers and bools always encode
	fmt.Fprintln(stdout, string(metaLine))

	// One untimed pass first, so the heap has grown and the caches are warm
	// before anything is timed. It is checked like every other pass.
	trials := w.trials(o.seed, o.cfg)
	warm := runPass(w, trials, nil, false)
	setup, err := measureSetup(w.fabrics(o.seed))
	if err != nil {
		return summary{}, err
	}

	var passes, traced []passResult
	var layer map[string]float64
	var tr *tracer
	var prof bytes.Buffer
	var replayProblems []string
	if !o.trace {
		passes = runPasses(w, trials, o.seconds, 2)
	} else {
		// Untraced and traced passes alternate, so host drift during the
		// run weighs on both alike. One CPU profile covers them all; only
		// traced passes and replays carry pprof labels.
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return summary{}, err
		}
		in := traceInputs{setup: setup}
		for start := time.Now(); len(traced) == 0 || time.Since(start).Seconds() < o.seconds; {
			passes = append(passes, runPass(w, trials, nil, false))
			if len(traced) > 0 {
				// Only the last traced pass keeps its records, for the replays.
				for i := range traced[len(traced)-1].outs {
					traced[len(traced)-1].outs[i].record = nil
				}
			}
			before := readRuntime()
			tr.phase("pass", func() { traced = append(traced, runPass(w, trials, tr, true)) })
			in.runtime = in.runtime.plus(readRuntime().minus(before))
		}
		in.untraced, in.traced = passes, traced
		in.replayCounts, in.handlers, in.replayRounds, replayProblems = runReplays(w, o, tr, traced[len(traced)-1])
		pprof.StopCPUProfile()
		if in.profile, err = parseProfile(prof.Bytes()); err != nil {
			return summary{}, err
		}
		layer = layerMetrics(in)
		fmt.Fprint(stdout, handlerTable(in.handlers))
	}

	all := append(append([]passResult{warm}, passes...), traced...)
	s := summary{Metrics: map[string]metric{}}
	digest := all[0].digest
	var problems []string
	for i, p := range all {
		s.Attempted += p.attempted
		s.Failed += p.failed
		problems = append(problems, p.problems...)
		if p.digest != digest {
			s.Failed++
			problems = append(problems, fmt.Sprintf("pass %d: sim_digest %s differs from pass 0's %s", i, p.digest, digest))
		}
	}
	if len(replayProblems) > 0 {
		s.Failed += len(replayProblems)
		problems = append(problems, replayProblems...)
	}
	s.Correct = s.Failed == 0
	for _, pr := range dedupe(problems) {
		fmt.Fprintln(stdout, "check failed:", pr)
	}
	fmt.Fprintf(stdout, "sim_digest %s workload=%s seed=%d passes=%d\n", digest, w.name, o.seed, len(all))

	failedFrac := float64(s.Failed) / float64(max(s.Attempted, 1))
	if !o.trace {
		s.Metrics = endToEnd(passes, setup)
		fmt.Fprintln(stdout, p90Note(passes))
	} else {
		for k, v := range layer {
			s.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
		s.Metrics["failed_frac"] = metric{Value: failedFrac, Unit: "ratio"}
	}
	printMetrics(stdout, s.Metrics)

	if o.out != "" {
		if err := writeArtifacts(o, meta, digest, s, failedFrac, tr, prof.Bytes()); err != nil {
			return summary{}, err
		}
	}
	return s, nil
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of the untraced passes.
func endToEnd(passes []passResult, setup setupTimes) map[string]metric {
	var tps, fps []float64
	var times []float64
	for _, p := range passes {
		sec := p.host.Seconds()
		tps = append(tps, float64(len(p.times))/sec)
		fps = append(fps, float64(p.completed)/sec)
		for _, t := range p.times {
			times = append(times, float64(t.Nanoseconds())/1e6)
		}
	}
	return map[string]metric{
		"trials_per_s": {median(tps), "1/s"},
		"flows_per_s":  {median(fps), "1/s"},
		"trial_p50_ms": {quantile(times, 0.5), "ms"},
		"trial_p90_ms": {quantile(times, 0.9), "ms"},
		"setup_s":      {setup.total, "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
}

// p90Note states the sample behind trial_p90_ms: a p90 is resolved only
// with at least ten trials beyond it.
func p90Note(passes []passResult) string {
	n := 0
	for _, p := range passes {
		n += len(p.times)
	}
	beyond := n - int(math.Ceil(0.9*float64(n)))
	note := fmt.Sprintf("trial_p90_ms over %d trials (%d beyond p90, %d per pass)", n, beyond, len(passes[0].times))
	if beyond < 10 {
		note += ": fewer than 10 beyond p90, so it reads as the slowest trials, not a resolved p90"
	}
	return note
}

// median returns the middle value (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostMeta names the build and the host every result was measured on.
func hostMeta(o options) map[string]any {
	m := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"workers":    harness.Workers,
	}
	m["vcs.revision"], m["vcs.modified"] = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				m[s.Key] = s.Value
			}
		}
	}
	return m
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// writeArtifacts writes the full result record, and for the traced run the
// spans and the CPU profile (read it with `go tool pprof -tagfocus`).
func writeArtifacts(o options, meta map[string]any, digest string, s summary, failedFrac float64, tr *tracer, prof []byte) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace))
	rec, err := json.MarshalIndent(map[string]any{
		"meta": meta, "sim_digest": digest, "failed_frac": failedFrac, "result": s,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".pprof", prof, 0o644)
}

// runtimeSample holds the runtime/metrics the traced run reports.
type runtimeSample struct{ gcCPU, allocBytes, gcCycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles}
}
