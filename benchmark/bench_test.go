package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// None of these tests asserts a time: they check that inputs and counters
// repeat, that the names printed are the names BENCHMARK.json lists, and
// that the arithmetic the numbers rest on is right.

func requestBytes(seed int64, spec svcSpec, n int) []byte {
	g := newOpGen(seed, spec.vars, spec.lits)
	var b []byte
	for i := 0; i < n; i++ {
		b = g.next().appendTo(b)
	}
	return b
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, spec := range []svcSpec{pipelineSpec, bigbaseSpec} {
		a, b := requestBytes(callerSeed(7, 3), spec, 5000), requestBytes(callerSeed(7, 3), spec, 5000)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same seed gave different request sequences")
		}
		if c := requestBytes(callerSeed(8, 3), spec, 5000); reflect.DeepEqual(a, c) {
			t.Fatalf("different seeds gave the same request sequence")
		}
	}
}

func TestGeneratorHoldsBoundedReferences(t *testing.T) {
	g := newOpGen(1, pipelineSpec.vars, pipelineSpec.lits)
	for i := 0; i < 20000; i++ {
		op := g.next()
		if g.known < 1 || g.known > svcKnownCap {
			t.Fatalf("after %d requests the caller holds %d references", i, g.known)
		}
		if op.kind == opRelease && op.slot == 0 {
			t.Fatalf("request %d releases the base", i)
		}
	}
}

func TestEngineCountersRepeat(t *testing.T) {
	for _, spec := range []engineSpec{fineSpec(1, false), bigSpec()} {
		var runs [2]searchOut
		for r := range runs {
			inst, err := newEngineInst(spec, 5)
			if err != nil {
				t.Fatal(err)
			}
			if runs[r], err = inst.search(0, nil); err != nil {
				t.Fatal(err)
			}
			if err := inst.close(); err != nil {
				t.Fatal(err)
			}
		}
		a, b := runs[0].res.Stats, runs[1].res.Stats
		a.CaptureNs, b.CaptureNs = 0, 0 // a time, not a count
		if a != b {
			t.Errorf("same seed, one worker: counters differ:\n%+v\n%+v", a, b)
		}
	}
}

// The same request sequence must get the same verdicts at every level it
// can enter, or subtracting one level's time from another's means nothing.
func TestLevelsAgree(t *testing.T) {
	for _, spec := range []svcSpec{pipelineSpec, bigbaseSpec} {
		var want []sample
		for _, level := range levels {
			spec := spec
			spec.perCaller, spec.checkSatEvery, spec.checkUnsatEvery = 60, 1, 0
			inst, err := newSvcInst(spec, 3, level, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := inst.callers[0]
			if err := c.run(t.Context(), spec.perCaller, spec, nil); err != nil {
				t.Fatalf("%s: %v", level, err)
			}
			got := append([]sample(nil), c.samples...)
			if err := c.check(inst.base); err != nil {
				t.Fatalf("%s: %v", level, err)
			}
			if err := inst.close(); err != nil {
				t.Fatalf("%s: %v", level, err)
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d Sat verdicts, wire level had %d", level, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i].model, want[i].model) {
					t.Fatalf("%s: model %d differs from the wire level's", level, i)
				}
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name)
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.name)
		if j := spec.EndToEnd[i]; j.Name != m.name || j.Unit != m.unit || j.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, j, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.name)
		if j := spec.PerLayer[i]; j.Name != m.name || j.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, j, m)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5 1 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 1 3 2 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := samplesBeyond(200, 95); got != 10 {
		t.Errorf("samples beyond p95 of 200 = %d, want 10", got)
	}
	if got := relDiff(90, 110); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relDiff(90,110) = %v, want 0.2", got)
	}
}

func slice(spinMs float64, steal float64, ops int64, ms float64, lats ...float64) measured {
	spin := time.Duration(spinMs * float64(time.Millisecond))
	return measured{pre: spin, post: spin, ref: refNominal, steal: steal,
		res: sliceResult{ops: ops, attempted: ops, dur: time.Duration(ms * float64(time.Millisecond)), lats: lats}}
}

func TestKeepQuietAndSummarize(t *testing.T) {
	ms := []measured{
		slice(100, 0, 1000, 1000, 10, 20, 30),
		slice(100, 0, 1100, 1000, 11, 21, 31),
		slice(100, 0.20, 400, 1000, 90, 95, 99), // the hypervisor took a fifth of the CPU
		slice(100, 0, 900, 1000, 9, 19, 29),
		slice(150, 0, 500, 1000, 80, 85, 89), // bracketed by a slow spin
	}
	kept, g := keepQuiet(ms)
	if len(kept) != 3 || g.discarded != 2 || g.noisy {
		t.Fatalf("kept %d, discarded %d, noisy %v; want 3, 2, false", len(kept), g.discarded, g.noisy)
	}
	s := summarize(kept, 90)
	if s.opsPerS != 1000 || s.latP50us != 20 || s.samples != 9 {
		t.Errorf("summary %+v; want 1000 ops/s, p50 20, 9 samples", s)
	}
	if s.latTailus != 30 { // the slices' own p90s are 30, 31 and 29
		t.Errorf("tail = %v, want 30", s.latTailus)
	}
	// Twice as fast a machine halves the rate it is credited with and
	// doubles the latencies.
	for i := range kept {
		kept[i].ref = refNominal / 2
	}
	if s := summarize(kept, 90); s.opsPerS != 500 || s.latP50us != 40 || s.speed != 2 {
		t.Errorf("at speed 2: %+v; want 500 ops/s, p50 40", s)
	}

	// A machine that is busy throughout keeps the quietest slices and says so.
	busy := []measured{slice(100, 0.3, 1, 1, 1), slice(100, 0.1, 1, 1, 1), slice(100, 0.2, 1, 1, 1), slice(100, 0.4, 1, 1, 1)}
	kept, g = keepQuiet(busy)
	if !g.noisy || len(kept) != 2 || kept[0].steal+kept[1].steal > 0.31 {
		t.Errorf("busy machine: kept %d slices, noisy %v; want the 2 quietest and noisy", len(kept), g.noisy)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100
	//   a 10..40
	//     a1 15..25
	//   b 30..60      overlaps a by 10: counted once under root
	//   c 90..120     clipped to root's end
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
	}
	want := []int64{100 - 30 - 20 - 10, 30 - 10, 10, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	sum := layerSelf(spans)
	if sum["root"] != 40 || sum["a"] != 20 {
		t.Errorf("by name: %v", sum)
	}
}
