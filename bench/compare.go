package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// ungatedBound is the band compare uses for metrics without a bound of
// their own (per-layer and workload detail): it classifies their change
// but gates nothing.
const ungatedBound = 0.10

// higherIsBetter lists the workload-detail metrics where more is better.
var higherIsBetter = map[string]bool{"serve_max_rps": true, "plan_cache_hit_frac": true}

// row is one (workload, metric) line of a comparison.
type row struct {
	Workload, Metric, Unit string
	Base, New              []float64
	Verdict                string
}

// readRecords reads a results file written with -out: one JSON record per
// line.
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// CompareFiles compares the runs recorded in base and next and writes one
// row per (workload, metric) to w.
func CompareFiles(w io.Writer, base, next string) error {
	a, err := readRecords(base)
	if err != nil {
		return err
	}
	b, err := readRecords(next)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		name string
		recs []Record
	}{{base, a}, {next, b}} {
		commits := map[string]bool{}
		for _, r := range side.recs {
			commits[r.Provenance.Commit] = true
			if !r.Correct {
				fmt.Fprintf(w, "warning: %s: %s seed %d failed %d of %d checks\n", side.name, r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
		fmt.Fprintf(w, "%s: %d runs, commits %s\n", side.name, len(side.recs), strings.Join(sortedKeys(commits), " "))
	}
	fmt.Fprintf(w, "%-28s %-28s %-10s %-34s %-34s %8s  %s\n",
		"workload", "metric", "unit", "base median [q1 q3] n", "new median [q1 q3] n", "change", "verdict")
	for _, row := range compareRecords(a, b) {
		fmt.Fprintf(w, "%-28s %-28s %-10s %-34s %-34s %+7.1f%%  %s\n", row.Workload, row.Metric, row.Unit,
			summary(row.Base), summary(row.New), 100*change(row.Base, row.New), row.Verdict)
	}
	return nil
}

// compareRecords pairs up the metrics of two sets of runs. Rows are ordered by
// workload, then metric; a metric recorded on one side only is skipped.
func compareRecords(base, next []Record) []row {
	type key struct{ workload, metric string }
	vals := func(recs []Record) (map[key][]float64, map[key]map[int64][]float64, map[key]string) {
		all, bySeed, units := map[key][]float64{}, map[key]map[int64][]float64{}, map[key]string{}
		for _, r := range recs {
			mode := ""
			if r.Trace {
				mode = " (traced)"
			}
			for _, m := range []map[string]Value{r.Metrics, r.Detail} {
				for _, name := range sortedKeys(m) {
					v := m[name]
					k := key{r.Workload + mode, name}
					all[k] = append(all[k], v.Value)
					if bySeed[k] == nil {
						bySeed[k] = map[int64][]float64{}
					}
					bySeed[k][r.Seed] = append(bySeed[k][r.Seed], v.Value)
					units[k] = v.Unit
				}
			}
		}
		return all, bySeed, units
	}
	av, aSeed, units := vals(base)
	bv, bSeed, _ := vals(next)
	var keys []key
	for k := range av {
		if _, ok := bv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		v := verdict(av[k], bv[k], defFor(k.metric))
		if strings.HasPrefix(k.metric, "modeled_") && (!seedStable(aSeed[k]) || !seedStable(bSeed[k])) {
			v = "BENCH BUG: deterministic metric differs between runs of one seed"
		}
		rows = append(rows, row{Workload: k.workload, Metric: k.metric, Unit: units[k], Base: av[k], New: bv[k], Verdict: v})
	}
	return rows
}

// defFor returns the definition of a metric; metrics outside EndToEnd
// compare under ungatedBound.
func defFor(name string) MetricDef {
	for _, d := range EndToEnd {
		if d.Name == name {
			return d
		}
	}
	d := MetricDef{Name: name, Better: "lower", Bound: ungatedBound}
	for _, p := range PerLayer {
		if p.Name == name {
			d.Better = p.Better
		}
	}
	if higherIsBetter[name] {
		d.Better = "higher"
	}
	return d
}

// verdict classifies next against base for metric d:
//   - unresolved: either side's quartile spread, as a share of its
//     median, is wider than the bound and the runs do not fully separate;
//   - worse: the median moved the wrong way by more than the bound;
//   - better: it moved the right way by more than the bound, or every new
//     run beats every base run;
//   - unchanged: otherwise.
func verdict(base, next []float64, d MetricDef) string {
	worse := change(base, next)
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter, allWorse := separated(base, next, d.Better == "higher")
	switch {
	case math.Max(Spread(base), Spread(next)) > d.Bound && !allBetter && !allWorse:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case -worse > d.Bound || allBetter:
		return "better"
	}
	return "unchanged"
}

// separated reports whether every next value beats every base value, or
// loses to every one.
func separated(base, next []float64, higher bool) (allBetter, allWorse bool) {
	if len(base) == 0 || len(next) == 0 {
		return false, false
	}
	bMin, bMax := minMax(base)
	nMin, nMax := minMax(next)
	if higher {
		return nMin > bMax, nMax < bMin
	}
	return nMax < bMin, nMin > bMax
}

// change is the relative change of the median, next over base.
func change(base, next []float64) float64 {
	mb, mn := Median(base), Median(next)
	switch {
	case mb == mn:
		return 0
	case mb == 0:
		return math.Copysign(math.Inf(1), mn)
	}
	return (mn - mb) / math.Abs(mb)
}

// seedStable reports whether runs with equal seeds read equal values.
func seedStable(bySeed map[int64][]float64) bool {
	for _, vs := range bySeed {
		for _, v := range vs {
			if v != vs[0] {
				return false
			}
		}
	}
	return true
}

func summary(xs []float64) string {
	q1, q2, q3 := Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", q2, q1, q3, len(xs))
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
