// Package bench is the treecode's benchmark: five fixed-work workloads,
// each run for a fixed wall-clock window, with every op's output checked
// for correctness. An untraced run measures the end-to-end metrics; a
// traced run splits each op into direct calls to the layers' public
// functions, checks that the split op returns potentials byte-identical to
// the untraced op, and reports where the time went. See README.md.
package bench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// MetricDef describes one reported metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// EndToEnd are the metrics every workload reports from an untraced run.
// What an "op" and a "set-up" are depends on the workload; see README.md.
// The bounds sit about twice above the widest spread seen over ten seeded
// runs on a shared 2-core VM; set-up, a few milliseconds of work, is the
// noisiest and has the widest.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s", "s", "lower", 0.20},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"accuracy_digits", "digits", "higher", 0.10},
}

// PerLayer are the metrics every workload reports from a traced run. Layer
// times are medians over the traced set-ups or ops; each residual is the
// set-up or op time minus its layers, so the layers and the residual sum to
// the total.
var PerLayer = []MetricDef{
	{"tree_s", "s", "lower", 0},
	{"batches_s", "s", "lower", 0},
	{"lists_s", "s", "lower", 0},
	{"grids_s", "s", "lower", 0},
	{"setup_residual_s", "s", "lower", 0},
	{"charges_s", "s", "lower", 0},
	{"compute_s", "s", "lower", 0},
	{"scatter_s", "s", "lower", 0},
	{"op_residual_s", "s", "lower", 0},
	{"tree_nodes", "count", "lower", 0},
	{"mac_tests", "count", "lower", 0},
	{"direct_pairs", "count", "lower", 0},
	{"approx_pairs", "count", "lower", 0},
	{"grids_mb", "MB", "lower", 0},
	{"charges_useful_frac", "ratio", "higher", 0},
	{"charges_ns_per_flop", "ns", "lower", 0},
	{"compute_ns_per_interaction", "ns", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// Options select how a workload runs.
type Options struct {
	Seed int64
	// Seconds is the measurement window: ops repeat until it has elapsed
	// (each op does the same fixed work, only their number varies).
	Seconds float64
	// Trace runs the layer split instead of the untraced ops.
	Trace bool
	// Quick shrinks every workload to toy sizes for tests.
	Quick bool
}

// Value is one measured metric.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Beyond is the number of samples above a reported tail percentile.
	Beyond int `json:"beyond,omitempty"`
}

// Run is the outcome of one workload run.
type Run struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Quick     bool           `json:"quick"`
	Params    map[string]any `json:"params"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	// Metrics holds the end-to-end metrics (untraced) or the per-layer
	// metrics (traced); Detail holds workload-specific numbers that are
	// recorded and compared but not gated.
	Metrics map[string]Value `json:"metrics"`
	Detail  map[string]Value `json:"detail"`

	spans *Recorder
}

// Correct reports whether every attempted op passed its checks.
func (r *Run) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// Spans returns the wall-clock spans a traced run recorded.
func (r *Run) Spans() []Span {
	if r.spans == nil {
		return nil
	}
	return r.spans.Spans()
}

// checked counts one attempted op; a non-empty problem marks it failed.
func (r *Run) checked(problem string) {
	r.Attempted++
	if problem == "" {
		return
	}
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, problem)
	}
}

func (r *Run) metric(name string, v float64, samples int) {
	r.Metrics[name] = Value{Value: v, Unit: unitOf(name), Samples: samples}
}

func (r *Run) detail(name, unit string, v float64, samples int) {
	r.Detail[name] = Value{Value: v, Unit: unit, Samples: samples}
}

func unitOf(name string) string {
	for _, d := range append(append([]MetricDef(nil), EndToEnd...), PerLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: unknown metric " + name)
}

// Workload is one fixed set of inputs and the ops run on them.
type Workload struct {
	Name string
	Why  string
	run  func(o Options, r *Run) error
}

// Workloads lists the benchmark's workloads in run order.
func Workloads() []Workload {
	return []Workload{solveUniform, probeSparse, serveOpen, nbodyPlummer, gpu4Rank}
}

// RunWorkload runs w with o and returns its outcome. Every metric of
// EndToEnd (untraced) or PerLayer (traced) is present in the result.
func RunWorkload(w Workload, o Options) (*Run, error) {
	r := &Run{
		Workload: w.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Quick: o.Quick,
		Params: map[string]any{}, Metrics: map[string]Value{}, Detail: map[string]Value{},
	}
	if o.Trace {
		r.spans = NewRecorder()
	}
	if err := w.run(o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	want := EndToEnd
	if o.Trace {
		want = PerLayer
	}
	for _, d := range want {
		if _, ok := r.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s not measured", w.Name, d.Name)
		}
	}
	return r, nil
}

// rngFor returns the generator for one named input stream of a workload:
// every input derives from the seed, and separate streams keep one input's
// draws from shifting another's.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// window runs op (given its index) until seconds have elapsed since the
// call, and at least minOps times.
func window(seconds float64, minOps int, op func(i int) error) error {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// series collects named per-op measurements.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) median(name string) float64 { return Median(s[name]) }

// timed runs f in a span named name under parent and adds its duration to
// the series of that name.
func (s series) timed(rec *Recorder, name string, parent, op int, f func()) {
	s.add(name, rec.Time(name, parent, op, 0, f))
}

// tail records the op-time tail for the report: the highest of p90/p99
// with at least ten samples beyond it, or the maximum when neither has.
func tail(r *Run, name string, xs []float64) {
	for _, q := range []float64{0.99, 0.9} {
		if v, beyond := Percentile(xs, q); beyond >= 10 {
			r.Detail[fmt.Sprintf("%s_p%.0f_s", name, q*100)] = Value{Value: v, Unit: "s", Samples: len(xs), Beyond: beyond}
			return
		}
	}
	v, _ := Percentile(xs, 1)
	r.detail(name+"_max_s", "s", v, len(xs))
}
