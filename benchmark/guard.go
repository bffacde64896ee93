package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The measurement protocol every workload shares: slices of fixed work,
// each bracketed by a fixed integer spin and by a reading of the host's
// stolen CPU time, which together tell a quiet machine from a busy one. Only
// those two decide whether a slice is kept; the measured value never does,
// so a slow slice of the program cannot hide itself.

// spinIters is the length of one guard spin, about 55 ms on the box the
// bounds were frozen on: a tenth of a slice. It is a constant, not a calibration: every spin of
// every run is the same work, so spins compare across slices and runs.
const spinIters = 28_000_000

// quietFactor is how much slower than the run's fastest spin a bracketing
// spin may be before its slice counts as disturbed. Spins of an undisturbed
// machine already differ by a tenth here, so a tighter factor discards half
// of the good slices and makes the median worse (see README.md).
const quietFactor = 1.25

// stealLimit is the share of a slice's CPU time the hypervisor may withhold
// (the steal column of /proc/stat) before the slice counts as disturbed: two
// scheduler ticks in a hundred.
const stealLimit = 0.02

var spinSink uint64

// spinOnce is the guard's unit of work: a dependent xorshift chain the
// compiler cannot shorten, touching no memory.
func spinOnce(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// spinAll runs the spin on procs goroutines at once and returns the slowest,
// so a neighbour stealing any one core shows.
func spinAll(procs int) time.Duration {
	durs := make([]time.Duration, procs)
	vals := make([]uint64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start := time.Now()
			vals[p] = spinOnce(spinIters)
			durs[p] = time.Since(start)
		}(p)
	}
	wg.Wait()
	slowest := durs[0]
	for p, d := range durs {
		slowest = max(slowest, d)
		spinSink += vals[p] // keeps the chain live
	}
	return slowest
}

// sliceResult is what one slice of fixed work yields.
type sliceResult struct {
	ops       int64         // operations completed (steps or requests)
	attempted int64         // operations issued
	failed    int64         // operations failed or refused
	dur       time.Duration // wall time of the work alone
	lats      []float64     // latency samples, µs
}

// measured is one slice with the spins that bracket it.
type measured struct {
	pre, post time.Duration // guard spins
	ref       time.Duration // machine reference: mean of the runs before and after
	steal     float64       // share of CPU time the hypervisor withheld during the slice
	rt        runtimeCounts
	traced    bool
	res       sliceResult
}

// instance is one set-up workload: a fixture that can run numbered slices.
type instance interface {
	// runSlice does slice i's fixed work, built from the run seed and i. A
	// non-nil tracer records spans around the calls into each layer. An
	// error is a failed output check or a broken transport, never a slow
	// run.
	runSlice(i int, tr *tracer) (sliceResult, error)
	// privBytesPerSnap is the bytes privatised per snapshot so far.
	privBytesPerSnap() float64
	// close releases everything and checks that nothing leaked.
	close() error
}

// runSlices issues slices until budget is spent. With a tracer, every other
// slice runs traced, so the traced and untraced halves see the same machine.
// Slice indexes never repeat within a run, so the work of a slice that is
// later discarded is re-issued under the next index rather than replayed.
func runSlices(inst instance, budget time.Duration, procs int, ref *machineRef, tr *tracer) ([]measured, error) {
	var out []measured
	begin := time.Now()
	pre := spinAll(procs)
	runtime.GC()
	refPre := ref.run()
	for i := 0; time.Since(begin) < budget || i < minSlices; i++ {
		m := measured{pre: pre, traced: tr != nil && i%2 == 1}
		var use *tracer
		if m.traced {
			use = tr
		}
		ticks, rt := readCPUTicks(), readRuntime()
		res, err := inst.runSlice(i, use)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", i, err)
		}
		m.res, m.rt, m.steal = res, readRuntime().since(rt), readCPUTicks().stealShare(ticks)
		m.post = spinAll(procs)
		// The reference runs with the collector idle, so the program's
		// garbage cannot slow it; the next slice starts from the same state.
		runtime.GC()
		refPost := ref.run()
		m.ref = (refPre + refPost) / 2
		out = append(out, m)
		pre, refPre = m.post, refPost
	}
	return out, nil
}

// minSlices is the fewest slices a run issues however short its budget.
const minSlices = 4

// guardStats describes how quiet the machine was during a run.
type guardStats struct {
	fastest   time.Duration // fastest spin of the run
	spread    float64       // (slowest − fastest) / fastest over all spins
	discarded int
	noisy     bool // fewer than half the slices were quiet
}

// keepQuiet drops the slices the machine disturbed: those bracketed by a
// slow spin, and those during which the hypervisor withheld more than
// stealLimit of the CPU time. If fewer than half of the slices are quiet
// the machine was busy throughout; the quieter half by stolen time is kept
// instead and the run is marked noisy, because a median over a handful of
// survivors would be worse than a median over slices a little disturbed.
func keepQuiet(ms []measured) ([]measured, guardStats) {
	var g guardStats
	if len(ms) == 0 {
		return nil, g
	}
	g.fastest = ms[0].pre
	slowest := ms[0].pre
	for _, m := range ms {
		g.fastest = min(g.fastest, m.pre, m.post)
		slowest = max(slowest, m.pre, m.post)
	}
	g.spread = float64(slowest-g.fastest) / float64(g.fastest)
	limit := time.Duration(float64(g.fastest) * quietFactor)
	var kept []measured
	for _, m := range ms {
		if m.pre <= limit && m.post <= limit && m.steal <= stealLimit {
			kept = append(kept, m)
		}
	}
	if half := (len(ms) + 1) / 2; len(kept) < half {
		g.noisy = true
		kept = append([]measured(nil), ms...)
		sort.SliceStable(kept, func(a, b int) bool { return kept[a].steal < kept[b].steal })
		kept = kept[:half]
	}
	g.discarded = len(ms) - len(kept)
	return kept, g
}

// summary holds the end-to-end numbers of one run of one workload.
type summary struct {
	opsPerS    float64
	latP50us   float64
	latTailus  float64
	rawOpsPerS float64 // wall-clock, before the machine reference is applied
	speed      float64 // the machine's speed during the kept slices, 1 = nominal
	samples    int
	beyond     int // samples above the tail percentile
	slices     int
	attempted  int64
	failed     int64
}

// speedOf is how fast the machine's memory system was around a slice,
// relative to the box the bounds were frozen on.
func (m measured) speed() float64 { return float64(refNominal) / float64(m.ref) }

// summarize reduces kept slices. Every metric is a median over slices of
// the slice's own value, so a disturbed slice that got past the guard cannot
// move it: a stall of a few milliseconds puts its victims into one slice's
// tail, not into the run's. Every time is first divided out by the machine's
// speed around its slice.
func summarize(kept []measured, tailPct float64) summary {
	var s summary
	var rates, raw, speeds, p50s, tails []float64
	for _, m := range kept {
		r, speed := m.res, m.speed()
		raw = append(raw, float64(r.ops)/r.dur.Seconds())
		rates = append(rates, float64(r.ops)/r.dur.Seconds()/speed)
		speeds = append(speeds, speed)
		l := make([]float64, len(r.lats))
		for i, v := range r.lats {
			l[i] = v * speed
		}
		sort.Float64s(l)
		p50s = append(p50s, percentile(l, 50))
		tails = append(tails, percentile(l, tailPct))
		s.samples += len(l)
		s.beyond += samplesBeyond(len(l), tailPct)
	}
	s.opsPerS = median(rates)
	s.rawOpsPerS = median(raw)
	s.speed = median(speeds)
	s.latP50us = median(p50s)
	s.latTailus = median(tails)
	s.slices = len(kept)
	return s
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

// readCPUTicks reads the host's CPU accounting; on a system without
// /proc/stat it returns zeros and every steal share reads 0.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the stolen share of the ticks since before.
func (t cpuTicks) stealShare(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// runtimeCounts are the Go runtime's own counters, read at slice boundaries.
type runtimeCounts struct {
	allocs, bytes, gcCycles uint64
	gcCPU, totalCPU         float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readRuntime reads the counters without stopping the world. The CPU
// classes are refreshed at the end of each GC cycle; a slice starts right
// after a forced cycle, so a delta covers the cycles the slice completed.
func readRuntime() runtimeCounts {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeCounts{
		allocs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
	}
}

func (r runtimeCounts) since(b runtimeCounts) runtimeCounts {
	return runtimeCounts{r.allocs - b.allocs, r.bytes - b.bytes, r.gcCycles - b.gcCycles,
		r.gcCPU - b.gcCPU, r.totalCPU - b.totalCPU}
}

// putRuntime reports what the Go runtime did during the kept untraced
// slices of a traced run.
func putRuntime(ls layerSet, kept []measured) {
	var t runtimeCounts
	var ops int64
	for _, m := range kept {
		t.allocs += m.rt.allocs
		t.bytes += m.rt.bytes
		t.gcCycles += m.rt.gcCycles
		t.gcCPU += m.rt.gcCPU
		t.totalCPU += m.rt.totalCPU
		ops += m.res.ops
	}
	ls.put("runtime.allocs_per_op", float64(t.allocs)/float64(ops), "count")
	ls.put("runtime.alloc_bytes_per_op", float64(t.bytes)/float64(ops), "B")
	ls.put("runtime.gc_cycles", float64(t.gcCycles), "count")
	frac := 0.0
	if t.totalCPU > 0 {
		frac = t.gcCPU / t.totalCPU
	}
	ls.put("runtime.gc_cpu_fraction", frac, "ratio")
}

// putHost reports how quiet the machine was. These explain a run; no change
// to the program moves them.
func putHost(ls layerSet, all []measured, g guardStats) {
	var steal float64
	for _, m := range all {
		steal += m.steal
	}
	noisy := 0.0
	if g.noisy {
		noisy = 1
	}
	ls.put("host.calib_spin_ms", float64(g.fastest)/1e6, "ms")
	ls.put("host.calib_spread", g.spread, "ratio")
	ls.put("host.slices_discarded", float64(g.discarded), "count")
	ls.put("host.steal_pct", 100*steal/float64(len(all)), "%")
	ls.put("host.noisy", noisy, "count")
}
