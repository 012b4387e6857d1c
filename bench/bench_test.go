package bench

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestQuickWorkloads runs every workload at toy sizes, untraced and traced,
// with every correctness check live: sampled accuracy, served potentials
// byte-identical to Plan.Solve, energy drift and update actions, modeled
// determinism, and each traced split byte-identical to its untraced op.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			r, err := RunWorkload(w, Options{Seed: 3, Seconds: 0.01, Trace: traced, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct() {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Failures)
			}
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			for _, d := range defs {
				v := r.Metrics[d.Name]
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit || v.Samples < 1 {
					t.Errorf("%s traced=%v: %s = %+v", w.Name, traced, d.Name, v)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, d.Name, v.Value)
				}
			}
			if traced && len(r.Spans()) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}

// TestSeedDeterminesInputs checks that equal seeds give equal inputs: the
// deterministic metrics repeat exactly, and another seed moves them.
func TestSeedDeterminesInputs(t *testing.T) {
	run := func(seed int64) *Run {
		r, err := RunWorkload(solveUniform, Options{Seed: seed, Seconds: 0.01, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, c := run(5), run(5), run(6)
	for _, name := range []string{"modeled_s", "modeled_setup_s"} {
		if a.Detail[name] != b.Detail[name] {
			t.Errorf("%s differs at equal seeds: %v vs %v", name, a.Detail[name], b.Detail[name])
		}
	}
	if a.Detail["modeled_s"] == c.Detail["modeled_s"] {
		t.Errorf("modeled_s identical for seeds 5 and 6: inputs ignore the seed")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metric tables here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ws := Workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []MetricDef, bounded bool) {
		var g, w []MetricDef
		for _, m := range got {
			d := MetricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if m.Bound != nil {
				d.Bound = *m.Bound
			}
			g = append(g, d)
		}
		for _, d := range want {
			if !bounded {
				d.Bound = 0
			}
			w = append(w, d)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: BENCHMARK.json has %+v, the benchmark %+v", kind, g, w)
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd, true)
	check("per_layer", doc.PerLayer, PerLayer, false)
	for _, d := range EndToEnd {
		if d.Bound > EndToEnd[0].Bound || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g; bounds lie in (0, 0.25] and setup_s has the largest", d.Name, d.Bound)
		}
	}
}

func TestSummaryLine(t *testing.T) {
	r := &Run{Workload: "w", Attempted: 4, Metrics: map[string]Value{"op_s": {Value: 0.0123456789, Unit: "s", Samples: 4}}}
	line, err := json.Marshal(Summarize([]*Run{r}))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":4,"failed":0,"metrics":{"op_s":{"value":0.0123456789,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("summary line\n got %s\nwant %s", line, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	op := MetricDef{Name: "op_s", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, tc := range []struct {
		next []float64
		d    MetricDef
		want string
	}{
		{[]float64{1.01, 1.00, 0.99, 1.02, 0.98}, op, "unchanged"},
		{[]float64{1.20, 1.21, 1.19, 1.22, 1.18}, op, "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.82, 0.78}, op, "better"},
		{[]float64{0.96, 0.95, 0.96, 0.97, 0.95}, op, "better"}, // every run faster
		{[]float64{0.5, 1.5, 0.7, 1.3, 1.0}, op, "unresolved"},
		{[]float64{0.80, 0.81, 0.79, 0.82, 0.78}, MetricDef{Name: "serve_max_rps", Better: "higher", Bound: 0.10}, "worse"},
	} {
		if got := verdict(base, tc.next, tc.d); got != tc.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", base, tc.next, tc.d.Better, got, tc.want)
		}
	}

	rec := func(seed int64, modeled float64) Record {
		return Record{Run: &Run{Workload: "w", Seed: seed, Metrics: map[string]Value{
			"modeled_s": {Value: modeled}, "op_s": {Value: 1},
		}}}
	}
	rows := compareRecords([]Record{rec(1, 2), rec(2, 3)}, []Record{rec(1, 2), rec(1, 2.5)})
	if len(rows) != 2 || rows[0].Metric != "modeled_s" || !strings.HasPrefix(rows[0].Verdict, "BENCH BUG") {
		t.Errorf("a modeled metric differing at one seed must be reported as a bench bug: %+v", rows)
	}
	if rows[1].Verdict != "unchanged" {
		t.Errorf("op_s: %+v", rows[1])
	}
}
