package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches one Loader for the whole test binary: the standard
// library is type-checked from source once and every fixture reuses it.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

// loadFixture loads testdata/src/<rel> under the synthetic import path
// "fixture/<rel>".
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	l := testLoader(t)
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := l.LoadDir(dir, "fixture/"+rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", rel, terr)
	}
	return pkg
}

// wantRe matches one quoted expectation in a // want comment.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectations extracts the fixture's // want "regex" comments, keyed by
// file:line.
func expectations(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	exp := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantRe.FindAllString(text, -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, q, err)
					}
					exp[key] = append(exp[key], regexp.MustCompile(s))
				}
			}
		}
	}
	return exp
}

// checkFixture runs the analyzer on the fixture and verifies the findings
// match the // want comments exactly: every diagnostic matched by an
// expectation on its line, every expectation matched by a diagnostic.
func checkFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	pkg := loadFixture(t, rel)
	exp := expectations(t, pkg)
	diags := Check([]*Package{pkg}, []*Analyzer{a})
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		res := exp[key]
		matched := -1
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %v", d)
			continue
		}
		exp[key] = append(res[:matched], res[matched+1:]...)
	}
	for key, res := range exp {
		for _, re := range res {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
		}
	}
}

func TestModeledTime(t *testing.T) {
	checkFixture(t, ModeledTime("fixture/modeledtime/flagged"), "modeledtime/flagged")
	checkFixture(t, ModeledTime("fixture/modeledtime/clean"), "modeledtime/clean")
}

func TestModeledTimeOnlyConfiguredPackages(t *testing.T) {
	// The flagged fixture is full of wall-clock reads, but the analyzer
	// only applies to the packages it was configured with.
	pkg := loadFixture(t, "modeledtime/flagged")
	diags := Check([]*Package{pkg}, []*Analyzer{ModeledTime("barytree/internal/device")})
	if len(diags) != 0 {
		t.Errorf("modeledtime ran outside its configured packages: %v", diags)
	}
}

func TestDetRand(t *testing.T) {
	checkFixture(t, DetRand(), "detrand/flagged")
	checkFixture(t, DetRand(), "detrand/clean")
}

func TestMapOrder(t *testing.T) {
	checkFixture(t, MapOrder(), "maporder/flagged")
	checkFixture(t, MapOrder(), "maporder/clean")
}

func TestNilTracer(t *testing.T) {
	checkFixture(t, NilTracer(), "niltracer/flagged")
	checkFixture(t, NilTracer(), "niltracer/clean")
}

func TestGoroutineCapture(t *testing.T) {
	checkFixture(t, GoroutineCapture(), "goroutinecapture/flagged")
	checkFixture(t, GoroutineCapture(), "goroutinecapture/clean")
}

func TestHotAlloc(t *testing.T) {
	checkFixture(t, HotAlloc(), "hotalloc/flagged")
	checkFixture(t, HotAlloc(), "hotalloc/clean")
}

func TestLockCheck(t *testing.T) {
	checkFixture(t, LockCheck("fixture/lockcheck/flagged"), "lockcheck/flagged")
	checkFixture(t, LockCheck("fixture/lockcheck/clean"), "lockcheck/clean")
	checkFixture(t, LockCheck("fixture/lockcheck/suppress"), "lockcheck/suppress")
}

// TestLockCheckReleaseRuleUngated verifies rule 1 (release on all paths)
// applies even in packages not configured for the blocking rule.
func TestLockCheckReleaseRuleUngated(t *testing.T) {
	pkg := loadFixture(t, "lockcheck/flagged")
	diags := Check([]*Package{pkg}, []*Analyzer{LockCheck()})
	leaks := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "is not released") {
			leaks++
		}
		if strings.Contains(d.Message, "is held") {
			t.Errorf("blocking rule fired outside its configured packages: %v", d)
		}
	}
	if leaks != 3 {
		t.Errorf("got %d release-rule findings without blocking config, want 3", leaks)
	}
}

func TestGoroLeak(t *testing.T) {
	checkFixture(t, GoroLeak(), "goroleak/flagged")
	checkFixture(t, GoroLeak(), "goroleak/clean")
	checkFixture(t, GoroLeak(), "goroleak/suppress")
}

func TestFloatDet(t *testing.T) {
	checkFixture(t, FloatDet("fixture/floatdet/flagged"), "floatdet/flagged")
	checkFixture(t, FloatDet("fixture/floatdet/clean"), "floatdet/clean")
	checkFixture(t, FloatDet("fixture/floatdet/suppress"), "floatdet/suppress")
}

// TestFloatDetOnlyConfiguredPackages: the flagged fixture is full of
// order-dependent reductions, but outside the compute packages (and
// absent //hot:path) the analyzer stays quiet.
func TestFloatDetOnlyConfiguredPackages(t *testing.T) {
	pkg := loadFixture(t, "floatdet/flagged")
	diags := Check([]*Package{pkg}, []*Analyzer{FloatDet("barytree/internal/kernel")})
	if len(diags) != 0 {
		t.Errorf("floatdet ran outside its configured packages: %v", diags)
	}
}

func TestErrDrop(t *testing.T) {
	checkFixture(t, ErrDrop("fixture/errdrop/flagged"), "errdrop/flagged")
	checkFixture(t, ErrDrop("fixture/errdrop/clean"), "errdrop/clean")
	checkFixture(t, ErrDrop("fixture/errdrop/suppress"), "errdrop/suppress")
}

func TestRmaLeak(t *testing.T) {
	checkFixture(t, RmaLeak(), "rmaleak/flagged")
	checkFixture(t, RmaLeak(), "rmaleak/clean")
	checkFixture(t, RmaLeak(), "rmaleak/suppress")
}

// TestSuppression verifies //lint:ignore semantics on the suppress
// fixture: justified directives on the finding's line or the line above
// suppress it, a wrong analyzer name does not, and a directive without a
// reason is itself reported.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags := Check([]*Package{pkg}, []*Analyzer{DetRand()})

	var detrand, lint []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "detrand":
			detrand = append(detrand, d)
		case "lint":
			lint = append(lint, d)
		default:
			t.Errorf("unexpected analyzer %q: %v", d.Analyzer, d)
		}
	}
	// Above and Trailing are suppressed; Wrong, Bare and Unknown survive.
	if len(detrand) != 3 {
		t.Fatalf("got %d surviving detrand findings, want 3 (Wrong, Bare, Unknown): %v", len(detrand), detrand)
	}
	for _, d := range detrand {
		if !strings.Contains(d.Message, "global math/rand source") {
			t.Errorf("unexpected detrand message: %v", d)
		}
	}
	// Two malformed directives: Bare (no reason) and Unknown (bad name).
	if len(lint) != 2 {
		t.Fatalf("want exactly two malformed-directive findings, got %v", lint)
	}
	for _, d := range lint {
		if !strings.Contains(d.Message, "malformed //lint:ignore") {
			t.Errorf("unexpected lint message: %v", d)
		}
	}
	if !strings.Contains(lint[0].Message, "<analyzer> <reason>") && !strings.Contains(lint[1].Message, "<analyzer> <reason>") {
		t.Errorf("missing no-reason malformed finding: %v", lint)
	}
	foundUnknown := false
	for _, d := range lint {
		if strings.Contains(d.Message, `unknown analyzer "detrandd"`) {
			foundUnknown = true
		}
	}
	if !foundUnknown {
		t.Errorf("missing unknown-analyzer malformed finding: %v", lint)
	}
}

// TestModuleLoads is the loader's integration test: the whole module
// type-checks from source with zero errors.
func TestModuleLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type check in -short mode")
	}
	pkgs, err := testLoader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Errorf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: %v", pkg.Path, terr)
		}
	}
}

// TestRepositoryClean dogfoods the suite: the tree must stay free of
// findings, the same gate verify.sh enforces via cmd/bltcvet.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide analysis in -short mode")
	}
	pkgs, err := testLoader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Check(pkgs, DefaultAnalyzers()) {
		t.Errorf("%v", d)
	}
}
