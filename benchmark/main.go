// Command benchmark is the repository's benchmark: four closed-loop
// workloads measured end to end, and a separate traced pass that times the
// calls into each layer from outside. README.md says why each workload
// exists and how a run is measured.
//
// The driver's form is
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which runs one workload and prints one JSON object as its last line.
// Without --workload all four run in turn; -aa runs them all twice and
// compares the two passes against the frozen bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one entry of the benchmark. The names are final: later
// issues cite them.
type workload struct {
	name    string
	tailPct float64 // the percentile lat_tail_us reports, taken within each slice
	setup   func(seed int64) (instance, error)
}

var workloads = []workload{
	{"engine-fine", 90, func(seed int64) (instance, error) {
		return newEngineInst(fineSpec(min(runtime.NumCPU(), 2), false), seed)
	}},
	{"engine-bigheap", 90, func(seed int64) (instance, error) {
		return newEngineInst(bigSpec(), seed)
	}},
	{"svc-pipeline", 95, func(seed int64) (instance, error) {
		return newSvcInst(pipelineSpec, seed, "wire", svcConns, svcDepth)
	}},
	// p90, not the p99 a service would quote: the p99 here is what a stolen
	// vCPU does to the 8 requests in flight (README.md has the record).
	{"svc-bigbase", 90, func(seed int64) (instance, error) {
		return newSvcInst(bigbaseSpec, seed, "wire", svcConns, svcDepth)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run times the workload's set-up; setup_s is
// the median, and the last instance is the one measured. One more set-up goes
// first, untimed: it grows the Go heap to the workload's size from pages the
// process has never touched, and what such a page costs is the host's doing
// (2 µs or 100 µs, README.md), not the program's.
const setupReps = 3

// warmupSlice is the slice index of the warm-up; measured slices count up
// from 0. Two slices of warm-up fill the caches and pools, and make set-up
// take about a second, long enough for setup_s to be a time and not a
// rounding error.
const (
	warmupSlice  = -1
	warmupSlices = 2
)

// setUp builds the fixture and runs the unmeasured warm-up.
func setUp(w workload, seed int64) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warmupSlices; i++ {
		if _, err := inst.runSlice(warmupSlice, nil); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return inst, time.Since(start), nil
}

// options are the settings every run shares.
type options struct {
	ref     *machineRef
	seed    int64
	seconds int
	procs   int
	outDir  string
	verbose bool
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(w workload, o options) (result, error) {
	// Each set-up is bracketed by the machine reference, like a slice, and
	// reported relative to it. An instance is closed and collected before the
	// next is built, so every set-up starts from the same heap.
	var inst instance
	var setups []float64
	var refPre time.Duration
	for r := -1; r < setupReps; r++ {
		var d time.Duration
		var err error
		if inst, d, err = setUp(w, o.seed); err != nil {
			return result{}, err
		}
		if r < setupReps-1 {
			if err := inst.close(); err != nil {
				return result{}, err
			}
			inst = nil
		}
		runtime.GC()
		refPost := o.ref.run()
		if r >= 0 {
			setups = append(setups, d.Seconds()*float64(refNominal)/float64((refPre+refPost)/2))
		}
		refPre = refPost
	}
	ms, err := runSlices(inst, time.Duration(o.seconds)*time.Second, o.procs, o.ref, nil)
	if err != nil {
		inst.close()
		return result{}, err
	}
	priv := inst.privBytesPerSnap()
	if err := inst.close(); err != nil {
		return result{}, err
	}
	kept, g := keepQuiet(ms)
	s := summarize(kept, w.tailPct)
	if o.verbose {
		printSlices(w.name, w.tailPct, ms)
	}
	fmt.Printf("%s: seed %d, GOMAXPROCS %d, %d slices: %d kept, %d discarded, noisy %v; fastest spin %.1f ms\n",
		w.name, o.seed, o.procs, len(ms), len(kept), g.discarded, g.noisy, float64(g.fastest)/1e6)
	fmt.Printf("%s: samples %d, %d beyond p%g; machine speed %.3f of nominal, wall-clock ops_per_s %.6g\n",
		w.name, s.samples, s.beyond, w.tailPct, s.speed, s.rawOpsPerS)
	attempted, failed := countOps(ms)
	values := map[string]float64{
		"ops_per_s":           s.opsPerS,
		"lat_p50_us":          s.latP50us,
		"lat_tail_us":         s.latTailus,
		"priv_bytes_per_snap": priv,
		"setup_s":             median(setups),
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
		fmt.Printf("%s %s = %.6g %s (bound %g%%)\n", w.name, m.name, values[m.name], m.unit, 100*m.bound)
	}
	fmt.Printf("%s err_rate = %g (%d failed of %d attempted)\n", w.name,
		float64(failed)/float64(attempted), failed, attempted)
	return res, nil
}

// countOps sums the operations of every slice, kept or not: a refused
// request counts wherever it happened.
func countOps(ms []measured) (attempted, failed int64) {
	for _, m := range ms {
		attempted += m.res.attempted
		failed += m.res.failed
	}
	return attempted, failed
}

func printSlices(name string, tailPct float64, ms []measured) {
	for i, m := range ms {
		fmt.Printf("%s slice %d: traced %v pre %.1f ms post %.1f ms ref %.1f ms steal %.4f rate %.0f/s dur %.3f s p50 %.1f tail %.1f us\n",
			name, i, m.traced, float64(m.pre)/1e6, float64(m.post)/1e6, float64(m.ref)/1e6, m.steal,
			float64(m.res.ops)/m.res.dur.Seconds(), m.res.dur.Seconds(), pct(m.res.lats, 50), pct(m.res.lats, tailPct))
	}
}

// tracedShare is the part of a traced run's seconds spent on the workload's
// own slices; the fixed probes take what they take.
const tracedShare = 0.4

// runTraced is the second, separate pass: the workload's slices alternately
// untraced and traced, then the fixed probes of every layer. It reports the
// per-layer metrics and writes trace.json.
func runTraced(w workload, o options) (result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	tr := newTracer()
	ls := make(layerSet)
	inst, _, err := setUp(w, o.seed)
	if err != nil {
		return result{}, err
	}
	budget := time.Duration(float64(o.seconds) * tracedShare * float64(time.Second))
	ms, err := runSlices(inst, budget, o.procs, o.ref, tr)
	if err != nil {
		inst.close()
		return result{}, err
	}
	if err := inst.close(); err != nil {
		return result{}, err
	}
	if o.verbose {
		printSlices(w.name, w.tailPct, ms)
	}
	var plain, traced []measured
	for _, m := range ms {
		if m.traced {
			traced = append(traced, m)
		} else {
			plain = append(plain, m)
		}
	}
	kept, g := keepQuiet(plain)
	s := summarize(kept, w.tailPct)
	keptTraced, _ := keepQuiet(traced)
	ls.put("trace.overhead_pct", 100*(1-summarize(keptTraced, w.tailPct).opsPerS/s.opsPerS), "%")
	// The slice's own p99 is too much the host's to carry a bound (README.md);
	// it is reported here, as wall-clock time.
	var p99s []float64
	for _, m := range kept {
		p99s = append(p99s, pct(m.res.lats, 99))
	}
	ls.put("workload.lat_p99_us", median(p99s), "us")
	putRuntime(ls, kept)
	putHost(ls, ms, g)

	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"core", func() error { return probeCore(ls, tr) }},
		{"primitives", func() error { return probePrimitives(ls) }},
		{"vm", func() error { return probeVM(ls) }},
		{"codec", func() error { return probeCodec(ls) }},
		{"service", func() error { return probeService(ls, o.seed, o.outDir, tr) }},
	} {
		if err := p.run(); err != nil {
			return result{}, fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	if err := ls.checkComplete(); err != nil {
		return result{}, err
	}
	if err := tr.write(o.outDir, w.name, o.seed); err != nil {
		return result{}, err
	}
	attempted, failed := countOps(ms)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ls}
	for _, m := range perLayer {
		fmt.Printf("%s %s = %.6g %s\n", w.name, m.name, ls[m.name].Value, m.unit)
	}
	return res, nil
}

// aa runs every workload twice, back to back, and compares the two passes:
// the same code must agree with itself within the frozen bounds before the
// bounds can judge anything else. It returns false if any pair disagrees by
// more than its bound.
func aa(o options) (bool, error) {
	var passes [2]map[string]result
	for p := range passes {
		passes[p] = make(map[string]result)
		for _, w := range workloads {
			res, err := runEndToEnd(w, o)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct {
				return false, fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			passes[p][w.name] = res
		}
	}
	ok := true
	fmt.Printf("\n%-15s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "disagree", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := passes[0][w.name].Metrics[m.name].Value, passes[1][w.name].Metrics[m.name].Value
			d := relDiff(a, b)
			verdict := ""
			if d > m.bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-15s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, m.name, a, b, 100*d, 100*m.bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	var o options
	name := flag.String("workload", "", "workload to run (default: all four in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 24, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	twice := flag.Bool("aa", false, "run every workload twice and compare the passes against the bounds")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace.json and scratch files")
	flag.BoolVar(&o.verbose, "v", false, "print every slice with its bracketing spins")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	o.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(o.procs)
	var err error
	if o.ref, err = newMachineRef(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: machine reference: %v\n", err)
		os.Exit(1)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if *twice {
		ok, err := aa(o)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	run := runEndToEnd
	if *trace == 1 {
		run = runTraced
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{w}
	}
	for _, w := range todo {
		res, err := run(w, o)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		out, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(out))
		if !res.Correct {
			os.Exit(1)
		}
	}
}
