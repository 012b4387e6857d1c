package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"barytree/internal/kernel"
)

// Provenance identifies what produced a result.
type Provenance struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUFeatures string `json:"cpu_features"`
}

// Stamp returns the provenance of this process. The commit comes from the
// build's VCS stamp, else from git when run at the root of a clone, else
// reads "unknown".
func Stamp() Provenance {
	p := Provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUFeatures: kernel.CPUFeatures(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil && p.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	return p
}

// Record is one workload run as written to a results file, one JSON object
// per line.
type Record struct {
	Provenance Provenance `json:"provenance"`
	*Run
	Correct bool `json:"correct"`
}

// WriteRecord appends r to w as one line of JSON.
func WriteRecord(w io.Writer, p Provenance, r *Run) error {
	b, err := json.Marshal(Record{Provenance: p, Run: r, Correct: r.Correct()})
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// PrintRun writes a human-readable report of r: its checks, every metric
// by name with unit and sample count, then the workload detail.
func PrintRun(w io.Writer, r *Run) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs window, %s)\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "   checks: %d ops attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "   %-28s %14.6g %-10s n=%d\n", d.Name, v.Value, v.Unit, v.Samples)
	}
	for _, k := range sortedKeys(r.Detail) {
		v := r.Detail[k]
		beyond := ""
		if v.Beyond > 0 {
			beyond = fmt.Sprintf(" (%d beyond)", v.Beyond)
		}
		fmt.Fprintf(w, "   %-28s %14.6g %-10s n=%d%s\n", k, v.Value, v.Unit, v.Samples, beyond)
	}
}

// Summary is the one-line JSON result: every metric of the mode (keyed by
// metric name for a single workload, by workload/metric for several), and
// the op counts of all runs.
type Summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]SummaryItem `json:"metrics"`
}

// SummaryItem is one metric of the result line. encoding/json writes the
// value in its shortest round-trip form, so every measured digit is kept.
type SummaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summarize builds the result line for runs.
func Summarize(runs []*Run) Summary {
	s := Summary{Correct: true, Metrics: map[string]SummaryItem{}}
	for _, r := range runs {
		s.Correct = s.Correct && r.Correct()
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for name, v := range r.Metrics {
			key := name
			if len(runs) > 1 {
				key = r.Workload + "/" + name
			}
			s.Metrics[key] = SummaryItem{v.Value, v.Unit}
		}
	}
	return s
}
