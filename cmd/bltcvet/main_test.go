package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestListSorted(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(t.TempDir(), []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr %q", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var names []string
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 2 {
			t.Fatalf("-list line %q missing doc summary", l)
		}
		names = append(names, f[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list not sorted: %v", names)
	}
	for _, want := range []string{"lockcheck", "goroleak", "floatdet", "errdrop", "detrand"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("-list missing analyzer %q in %v", want, names)
		}
	}
}

func TestNoGoModExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(t.TempDir(), []string{"./..."}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d outside a module, want 2 (stderr %q)", code, errb.String())
	}
	if errb.Len() == 0 {
		t.Error("expected an error message on stderr")
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(t.TempDir(), []string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d for a bad flag, want 2", code)
	}
}

// TestJSONFindingsAndAnnotations runs a tiny synthetic module with one
// finding: -json reports it with a module-relative path, and text mode
// under GITHUB_ACTIONS prefixes it with a workflow annotation.
func TestJSONFindingsAndAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("stdlib source type-check in -short mode")
	}
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module tiny\n\ngo 1.22\n")
	writeFile(t, dir, "p/p.go", `package p

import "math/rand"

// Roll trips detrand: the global source is banned.
func Roll() int { return rand.Intn(6) }
`)

	var out, errb bytes.Buffer
	if code := run(dir, []string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d with a finding, want 1 (stderr %q)", code, errb.String())
	}
	var found []Finding
	if err := json.Unmarshal(out.Bytes(), &found); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out.String())
	}
	if len(found) != 1 || found[0].Analyzer != "detrand" || found[0].File != "p/p.go" {
		t.Fatalf("unexpected findings: %+v", found)
	}

	// Text mode under GITHUB_ACTIONS emits workflow annotations.
	t.Setenv("GITHUB_ACTIONS", "true")
	out.Reset()
	if code := run(dir, []string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d in annotation mode, want 1", code)
	}
	if !strings.Contains(out.String(), "::error file=p/p.go,line=") {
		t.Errorf("missing GitHub annotation in output:\n%s", out.String())
	}
}

func writeFile(t *testing.T, dir, rel, content string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
