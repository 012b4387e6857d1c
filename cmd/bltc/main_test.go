package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTraceProfileCheck drives every backend with -trace, -profile and
// -check together. The CPU backend once indexed its three phase times with
// every trace phase name, Plan.Update's spans included, and panicked.
func TestRunTraceProfileCheck(t *testing.T) {
	for _, backend := range []string{"cpu", "gpu", "dist"} {
		t.Run(backend, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			var out bytes.Buffer
			args := []string{"-backend", backend, "-n", "2000", "-leaf", "200",
				"-trace", tracePath, "-profile", "-check"}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"modeled times", "trace: ", "relative 2-norm error"} {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output lacks %q:\n%s", want, out.String())
				}
			}
			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(raw) {
				t.Fatalf("trace file is not valid JSON")
			}
		})
	}
}
