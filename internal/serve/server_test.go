package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"barytree/internal/core"
	"barytree/internal/kernel"
)

// newTestServer starts an httptest server around a fresh daemon.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON posts body and decodes the response into out (if non-nil),
// returning the status code and raw body.
func doJSON(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

func TestServerPlanLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, _ := testSet(150, 31)
	req := PlanRequest{GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(testParams())}}

	var created PlanResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/plans", req, &created); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if !created.Created || created.Targets != 150 || created.Plan == "" {
		t.Fatalf("create response %+v, want created=true targets=150", created)
	}

	// Same geometry again: cache hit, no new build.
	var again PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", req, &again)
	if again.Created || again.Plan != created.Plan {
		t.Fatalf("repeat create %+v, want created=false same key %s", again, created.Plan)
	}

	var list PlanListResponse
	doJSON(t, "GET", ts.URL+"/v1/plans", nil, &list)
	if len(list.Plans) != 1 || list.Plans[0].Plan != created.Plan || list.Stats.Builds != 1 {
		t.Fatalf("list %+v, want the one plan with one build", list)
	}

	var info PlanInfo
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/plans/"+created.Plan, nil, &info); code != http.StatusOK {
		t.Fatalf("get: %d %s", code, raw)
	}
	if info.Plan != created.Plan || info.Sources != 150 {
		t.Fatalf("get %+v", info)
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/plans/"+created.Plan, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/plans/"+created.Plan, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/plans/"+created.Plan, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}
}

// TestServerSolveMatchesLibrary pins the end-to-end identity: potentials
// served over HTTP — by plan key or inline geometry, any kernel — are
// byte-identical to barytree.Solve (JSON float64 encoding is shortest-
// round-trip, so the bits survive the wire).
func TestServerSolveMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, q := testSet(200, 37)
	p := testParams()

	var plan PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
	}, &plan)

	cases := []struct {
		name string
		spec *KernelSpec
		k    kernel.Kernel
	}{
		{"coulomb by key", &KernelSpec{Name: "coulomb"}, kernel.Coulomb{}},
		{"yukawa by key", &KernelSpec{Name: "yukawa", Kappa: 0.5}, kernel.Yukawa{Kappa: 0.5}},
		{"default kernel", nil, kernel.Coulomb{}},
	}
	for _, tc := range cases {
		var sol SolveResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{
			Plan: plan.Plan, Kernel: tc.spec, Charges: q,
		}, &sol)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, code, raw)
		}
		if sol.Cache != "hit" {
			t.Fatalf("%s: response %+v, want a cache hit", tc.name, sol)
		}
		want := refSolve(t, tc.k, s, q, p)
		for i := range want {
			if sol.Phi[i] != want[i] {
				t.Fatalf("%s: phi[%d] served %v != library %v", tc.name, i, sol.Phi[i], want[i])
			}
		}
	}

	// Inline geometry: first solve builds (cache miss), repeat hits, both
	// identical to the library.
	s2, q2 := testSet(180, 41)
	inline := SolveRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s2), Params: paramsSpec(p)},
		Charges:      q2,
	}
	var first, second SolveResponse
	doJSON(t, "POST", ts.URL+"/v1/solve", inline, &first)
	doJSON(t, "POST", ts.URL+"/v1/solve", inline, &second)
	if first.Cache != "miss" || second.Cache != "hit" {
		t.Fatalf("inline cache states %q then %q, want miss then hit", first.Cache, second.Cache)
	}
	want := refSolve(t, kernel.Coulomb{}, s2, q2, p)
	for i := range want {
		if first.Phi[i] != want[i] || second.Phi[i] != want[i] {
			t.Fatalf("inline phi[%d]: %v / %v != library %v", i, first.Phi[i], second.Phi[i], want[i])
		}
	}
}

func TestServerSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, q := testSet(120, 43)
	p := testParams()
	var plan PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
	}, &plan)
	huge := make([]float64, len(q))
	for i := range huge {
		huge[i] = 1e308
	}

	cases := []struct {
		name string
		req  SolveRequest
		code int
		msg  string
	}{
		{"no charges", SolveRequest{Plan: plan.Plan}, http.StatusBadRequest, "charges required"},
		{"unknown plan", SolveRequest{Plan: "deadbeef", Charges: q}, http.StatusNotFound, "unknown plan"},
		{"no plan or geometry", SolveRequest{Charges: q}, http.StatusBadRequest, "either plan key or inline geometry"},
		{"bad kernel", SolveRequest{Plan: plan.Plan, Kernel: &KernelSpec{Name: "nope"}, Charges: q}, http.StatusBadRequest, "unknown kernel"},
		{"short charges", SolveRequest{Plan: plan.Plan, Charges: q[:7]}, http.StatusBadRequest, "120"},
		{"overflowing potentials", SolveRequest{Plan: plan.Plan, Charges: huge}, http.StatusBadRequest, "overflow"},
	}
	for _, tc := range cases {
		code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", tc.req, nil)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.code, raw)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, tc.msg) {
			t.Errorf("%s: body %s, want error containing %q", tc.name, raw, tc.msg)
		}
	}

	// Ragged geometry on the plan path.
	code, raw := doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: &PointsSpec{X: s.X, Y: s.Y[:50], Z: s.Z}},
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "ragged") {
		t.Errorf("ragged geometry: %d %s, want 400 mentioning ragged arrays", code, raw)
	}

	// A null element is rejected by name and index: encoding/json would
	// store nothing for it, leaving a zero charge, or an earlier array's
	// value when the key repeats.
	for _, c := range []struct {
		name, body, msg string
	}{
		{"null charge by key", `{"plan":"` + plan.Plan + `","charges":` + withNull(q, 1) + `}`, "charges[1] is null"},
		{"null after a repeated key", `{"plan":"` + plan.Plan + `","charges":` + withNull(q, -1) + `,"charges":` + withNull(q, 0) + `}`,
			"charges[0] is null"},
		{"null coordinate inline", `{"targets":{"x":` + withNull(s.X, -1) + `,"y":` + withNull(s.Y, 7) + `,"z":` + withNull(s.Z, -1) +
			`},"params":` + string(mustJSON(t, paramsSpec(p))) + `,"charges":` + withNull(q, -1) + `}`, "targets.y[7] is null"},
	} {
		code, raw := postRaw(t, ts.URL+"/v1/solve", c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), c.msg) {
			t.Errorf("%s: %d %s, want 400 naming %q", c.name, code, raw, c.msg)
		}
	}
}

// withNull encodes v as a JSON array with element i written as null, or
// every element as a number when i < 0.
func withNull(v []float64, i int) string {
	parts := make([]string, len(v))
	for k, x := range v {
		parts[k] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	if i >= 0 {
		parts[i] = "null"
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// postRaw posts body as is and returns the status code and raw response.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestServerBodyIsOneValueUnderCap pins two rules of both POST endpoints:
// a body is one JSON value, with nothing but whitespace after it, and
// MaxRequestBytes caps the whole body, not only its first value.
func TestServerBodyIsOneValueUnderCap(t *testing.T) {
	const limit = 4096
	_, ts := newTestServer(t, Config{MaxRequestBytes: limit})
	s, q := testSet(20, 79)
	planBody := string(mustJSON(t, PlanRequest{GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(testParams())}}))
	var plan PlanResponse
	code, raw := postRaw(t, ts.URL+"/v1/plans", planBody+" \n")
	if code != http.StatusOK || json.Unmarshal(raw, &plan) != nil {
		t.Fatalf("plan body with trailing whitespace: %d %s, want 200", code, raw)
	}
	solveBody := string(mustJSON(t, SolveRequest{Plan: plan.Plan, Charges: q}))
	if code, raw := postRaw(t, ts.URL+"/v1/solve", solveBody+"\r\n"); code != http.StatusOK {
		t.Fatalf("solve body with trailing whitespace: %d %s, want 200", code, raw)
	}
	if len(planBody) > limit/2 || len(solveBody) > limit/2 {
		t.Fatalf("bodies of %d and %d bytes leave no room under the %d-byte cap", len(planBody), len(solveBody), limit)
	}
	for _, c := range []struct {
		name, path, body, msg string
	}{
		{"plan then bytes", "/v1/plans", planBody + "xyz", "after top-level value"},
		{"plan then a second value", "/v1/plans", planBody + planBody, "after top-level value"},
		{"solve then bytes", "/v1/solve", solveBody + "xyz", "after top-level value"},
		{"solve then a second value", "/v1/solve", solveBody + " " + solveBody, "after top-level value"},
		{"plan then whitespace past the cap", "/v1/plans", planBody + strings.Repeat(" ", limit), "request body exceeds 4096 bytes"},
		{"solve then whitespace past the cap", "/v1/solve", solveBody + strings.Repeat("\n", limit), "request body exceeds 4096 bytes"},
	} {
		code, raw := postRaw(t, ts.URL+c.path, c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), c.msg) {
			t.Errorf("%s: %d %s, want 400 containing %q", c.name, code, raw, c.msg)
		}
	}
}

// TestServerBackpressure fills the admission semaphore directly and checks
// the deterministic 429 + Retry-After path, then drains it and checks
// recovery.
func TestServerBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 2})
	s, q := testSet(120, 47)
	p := testParams()
	var plan PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
	}, &plan)

	// Occupy both slots as if two solves were in flight.
	srv.admit <- struct{}{}
	srv.admit <- struct{}{}

	req, _ := json.Marshal(SolveRequest{Plan: plan.Plan, Charges: q})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: %d %s, want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// Drain one slot: the next request is admitted and solves.
	<-srv.admit
	var sol SolveResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{Plan: plan.Plan, Charges: q}, &sol); code != http.StatusOK {
		t.Fatalf("solve after drain: %d %s", code, raw)
	}
	<-srv.admit // release the remaining held slot

	// The rejection is visible on /metrics.
	if !strings.Contains(scrape(t, ts), "bltcd_rejected_total 1") {
		t.Error("rejection not counted on /metrics")
	}
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

func TestServerMetricsAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, q := testSet(120, 53)
	p := testParams()
	var sol SolveResponse
	doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
		Charges:      q,
	}, &sol)

	metrics := scrape(t, ts)
	for _, want := range []string{
		"bltcd_solve_requests_total 1",
		"bltcd_solve_ok_total 1",
		"bltcd_solve_plan_misses_total 1",
		"bltcd_plan_cache_size 1",
		"bltcd_coalesce_groups_total 1",
		"bltcd_coalesce_jobs_total 1",
		"bltcd_solve_latency_seconds_count 1",
		`bltcd_trace{counter="serve.plan.builds"} 1`,
		`bltcd_trace{counter="serve.solves"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/trace is not Chrome trace JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"serve.plan.build", "serve.precompute", "serve.compute"} {
		if !names[want] {
			t.Errorf("/trace missing span %q (have %v)", want, names)
		}
	}

	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestServerConcurrentSolves is the -race stress of the solve path:
// goroutines hammer one daemon with Coulomb, Yukawa and Gaussian requests,
// each kernel with its own charge vector. Every valid response must be
// byte-identical to the library path and every short one a 400, whatever
// runs beside it on the same plan.
func TestServerConcurrentSolves(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 64})
	p := testParams()
	kernels := []struct {
		spec *KernelSpec
		k    kernel.Kernel
	}{
		{&KernelSpec{Name: "coulomb"}, kernel.Coulomb{}},
		{&KernelSpec{Name: "yukawa", Kappa: 0.5}, kernel.Yukawa{Kappa: 0.5}},
		{&KernelSpec{Name: "gaussian", Sigma: 1.2}, kernel.Gaussian{Sigma: 1.2}},
	}

	type geom struct {
		key  string
		q    [][]float64 // per kernel
		want [][]float64
	}
	geoms := make([]*geom, 2)
	for gi := range geoms {
		s, _ := testSet(160, 59+int64(gi))
		g := &geom{}
		var plan PlanResponse
		doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
			GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
		}, &plan)
		g.key = plan.Plan
		for v, kc := range kernels {
			_, q := testSet(160, 300+int64(10*gi+v))
			g.q = append(g.q, q)
			g.want = append(g.want, refSolve(t, kc.k, s, q, p))
		}
		geoms[gi] = g
	}

	// hammer runs 8 goroutines of 4 requests each over gs; request r of
	// worker w is of kind(w, r): a valid solve, one that sends only 7
	// charges, or a valid solve whose client gives up once it is sent.
	const (
		valid = iota
		short
		cancelled
	)
	hammer := func(t *testing.T, gs []*geom, kind func(w, r int) int) {
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					g := gs[(w+r)%len(gs)]
					v := (w + 2*r) % len(kernels)
					req := SolveRequest{Plan: g.key, Kernel: kernels[v].spec, Charges: g.q[v]}
					switch kind(w, r) {
					case short:
						req.Charges = req.Charges[:7]
						if code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", req, nil); code != http.StatusBadRequest {
							errs <- fmt.Errorf("worker %d, 7 charges: %d %s, want 400", w, code, raw)
							return
						}
						continue
					case cancelled:
						if err := postCancelled(ts.URL+"/v1/solve", req); err != nil {
							errs <- fmt.Errorf("worker %d, cancelled: %v", w, err)
							return
						}
						continue
					}
					var sol SolveResponse
					code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", req, &sol)
					if code != http.StatusOK {
						errs <- fmt.Errorf("worker %d: %d %s", w, code, raw)
						return
					}
					for i := range g.want[v] {
						if sol.Phi[i] != g.want[v][i] {
							errs <- fmt.Errorf("worker %d kernel %d phi[%d]: %v != %v", w, v, i, sol.Phi[i], g.want[v][i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	allValid := func(w, r int) int { return valid }
	everyFourth := func(k int) func(w, r int) int {
		return func(w, r int) int {
			if (w+r)%4 == 3 {
				return k
			}
			return valid
		}
	}

	// Every kernel at once on one plan: a request's potentials do not
	// depend on which other kernels or charges share the plan.
	t.Run("mixed-kernels", func(t *testing.T) { hammer(t, geoms[:1], allValid) })
	// Concurrent submissions spread over two cached plans.
	t.Run("shared-cache", func(t *testing.T) { hammer(t, geoms, allValid) })
	// Every fourth request is short: it gets its 400 without disturbing
	// the valid requests running beside it on the same plan.
	t.Run("short-charges", func(t *testing.T) { hammer(t, geoms[:1], everyFourth(short)) })
	// Every fourth client gives up once its request is sent: it returns
	// at once, its peers on the plan still get the library's bytes, and
	// once the abandoned solves finish the admission gauge is back at 0
	// and no goroutine is left behind (the check FuzzSolveHandler makes).
	t.Run("cancelled", func(t *testing.T) {
		http.DefaultClient.CloseIdleConnections()
		before := runtime.NumGoroutine()
		hammer(t, geoms[:1], everyFourth(cancelled))
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(scrape(t, ts), "\nbltcd_inflight 0\n") {
			if time.Now().After(deadline) {
				t.Fatal("bltcd_inflight did not drain to 0")
			}
			time.Sleep(time.Millisecond)
		}
		http.DefaultClient.CloseIdleConnections()
		if n := goroutinesAfter(before); n > before {
			t.Fatalf("%d goroutines after the hammer, %d before", n, before)
		}
	})
}

// postCancelled posts req with a client context that is cancelled as soon
// as the request, body included, has been written. The client call must
// then return promptly: with the cancellation, or with a response that
// raced ahead of it.
func postCancelled(url string, req SolveRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sent := make(chan time.Time, 1)
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) {
			sent <- time.Now()
			cancel()
		},
	})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(hreq)
	returned := time.Now()
	if err == nil {
		resp.Body.Close()
	} else if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("client error %v, want context.Canceled", err)
	}
	select {
	case at := <-sent:
		if d := returned.Sub(at); d > 5*time.Second {
			return fmt.Errorf("client returned %v after its cancel", d)
		}
	default:
		return fmt.Errorf("client returned (%v) before its request was sent", err)
	}
	return nil
}

// FuzzSolveHandler sends arbitrary POST /v1/solve bodies to a daemon
// holding one cached plan. Every body must get a 200 or a 4xx, never a 5xx
// or a panic, and leave no goroutine behind; every 200 must carry, bit for
// bit, the potentials core.SolvePotentials computes on that plan for the
// body's kernel and charges. Bodies with inline geometry are skipped: the
// daemon does not bound their params, so a small body can ask the setup
// phase for gigabytes.
func FuzzSolveHandler(f *testing.F) {
	srv := New(Config{Workers: 2})
	h := srv.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}

	s, q := testSet(100, 61)
	var plan PlanResponse
	w := post("/v1/plans", encode(PlanRequest{GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(testParams())}}))
	if err := json.Unmarshal(w.Body.Bytes(), &plan); w.Code != http.StatusOK || err != nil {
		f.Fatalf("POST /v1/plans: %d %s", w.Code, w.Body)
	}
	pl := srv.cache.Get(plan.Plan).Plan()

	huge := make([]float64, len(q))
	for i := range huge {
		huge[i] = 1e308
	}
	for _, sd := range []struct {
		code int
		body []byte
	}{
		{http.StatusOK, encode(SolveRequest{Plan: plan.Plan, Charges: q})},
		{http.StatusOK, encode(SolveRequest{Plan: plan.Plan, Kernel: &KernelSpec{Name: "yukawa", Kappa: 0.5}, Charges: q})},
		{http.StatusOK, encode(SolveRequest{Plan: plan.Plan, Kernel: &KernelSpec{Name: "multiquadric", C: 0.3}, Charges: q})},
		{http.StatusBadRequest, encode(SolveRequest{Plan: plan.Plan, Charges: huge})},
		{http.StatusBadRequest, encode(SolveRequest{Plan: plan.Plan, Charges: q[:9]})},
		{http.StatusBadRequest, encode(SolveRequest{Plan: plan.Plan, Kernel: &KernelSpec{Name: "gaussian"}, Charges: q})},
		{http.StatusBadRequest, []byte(`{"plan":`)},
		{http.StatusBadRequest, []byte(`{"charges":[1]}`)},
		{http.StatusNotFound, encode(SolveRequest{Plan: "deadbeef", Charges: q})},
	} {
		if w := post("/v1/solve", sd.body); w.Code != sd.code {
			f.Fatalf("seed %.80s: status %d, want %d (%s)", sd.body, w.Code, sd.code, w.Body)
		}
		f.Add(sd.body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if decodeErr == nil && req.Plan == "" && req.Targets != nil {
			t.Skip("inline geometry: plan params are unbounded")
		}
		before := runtime.NumGoroutine()
		w := post("/v1/solve", body)
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code > 499) {
			t.Fatalf("status %d (%s), want 200 or a 4xx", w.Code, w.Body)
		}
		if n := goroutinesAfter(before); n > before {
			t.Fatalf("%d goroutines after the call, %d before", n, before)
		}
		if w.Code != http.StatusOK {
			return
		}
		var got SolveResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 with undecodable body %q: %v", w.Body, err)
		}
		k, err := req.Kernel.Build()
		if err != nil {
			t.Fatalf("200 for a body whose kernel fails to build: %v", err)
		}
		st := core.NewChargeState(pl)
		if err := st.SetCharges(pl, req.Charges); err != nil {
			t.Fatalf("200 for a body whose charges do not fit the plan: %v", err)
		}
		want := core.SolvePotentials(pl, k, st, 0)
		if len(got.Phi) != len(want) {
			t.Fatalf("%d potentials, want %d", len(got.Phi), len(want))
		}
		for i := range want {
			if math.Float64bits(got.Phi[i]) != math.Float64bits(want[i]) {
				t.Fatalf("phi[%d] served %v != SolvePotentials %v", i, got.Phi[i], want[i])
			}
		}
	})
}

// goroutinesAfter waits up to a second for the goroutine count to fall to
// want and returns the last count: a pool worker that has signalled its
// WaitGroup can still be on its way out when the handler returns.
func goroutinesAfter(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
