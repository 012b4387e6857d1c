package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/serve"
)

var serveOpen = Workload{
	Name: "serve-open-2k",
	Why:  "bltcd under open-loop Poisson arrivals: decode, admission, coalescing and encode around a small solve, where compute is only part of the latency.",
	run:  runServe,
}

// serveSpec sizes the serving workload: plans of n points each, a corpus of
// pre-encoded solve bodies spread over them (every fourth body per plan a
// Yukawa solve, the rest Coulomb), phase A at a fixed arrival rate, and
// phase B's log-bisection for the highest sustainable rate.
type serveSpec struct {
	n, plans, bodies int
	params           serve.ParamsSpec
	rate             float64 // phase A arrivals per second
	setupReps        int
	probes           int     // phase B probes
	probeRequests    int     // requests per probe
	probeLo, probeHi float64 // phase B rate bracket, req/s
}

// A phase B probe passes when its p90 latency stays within serveP90Limit,
// no request fails, and the median latency of its last third is at most
// serveGrowth times that of its first third (the backlog is not growing).
const (
	serveP90Limit = 0.050
	serveGrowth   = 2.0
)

// serveCorpus is the traffic: solve bodies, and for each the exact
// response suffix the library's Plan.Solve implies.
type serveCorpus struct {
	bodies, expect [][]byte
	plan           []int // plan index of each body
	kernels        []kernel.Kernel
	charges, phi   [][]float64 // each body's charges and library potentials
}

// reqResult is one request's outcome; times are seconds.
type reqResult struct {
	body    int
	latency float64 // completion minus due time
	service float64 // ServeHTTP wall time
	late    float64 // generator lag: send minus due time
	status  int
	match   bool // 200 with potentials byte-identical to the library's
}

func runServe(o Options, r *Run) error {
	sp := serveSpec{
		n: 2000, plans: 4, bodies: 32, params: serve.ParamsSpec{Theta: 0.7, Degree: 6, LeafSize: 320, BatchSize: 320},
		rate: 60, setupReps: 41, probes: 6, probeRequests: 100, probeLo: 30, probeHi: 480,
	}
	if o.Quick {
		sp.bodies = 8
		sp.setupReps, sp.probes, sp.probeRequests = 2, 2, 20
	}
	p := core.Params{Theta: sp.params.Theta, Degree: sp.params.Degree, LeafSize: sp.params.LeafSize, BatchSize: sp.params.BatchSize}
	grng := rngFor(o.Seed, r.Workload+"/geometry")
	pts := make([]*particle.Set, sp.plans)
	planBodies := make([][]byte, sp.plans)
	for g := range pts {
		pts[g] = particle.UniformCube(sp.n, grng)
		b, err := json.Marshal(serve.PlanRequest{GeometrySpec: serve.GeometrySpec{
			Targets: &serve.PointsSpec{X: pts[g].X, Y: pts[g].Y, Z: pts[g].Z}, Params: &sp.params}})
		if err != nil {
			return err
		}
		planBodies[g] = b
	}
	nA := max(20, int(sp.rate*0.7*o.Seconds))
	r.Params = map[string]any{
		"points": sp.n, "plans": sp.plans, "bodies": sp.bodies, "theta": p.Theta, "degree": p.Degree,
		"leaf_size": p.LeafSize, "batch_size": p.BatchSize, "rate_per_s": sp.rate, "phase_a_requests": nA,
		"probes": sp.probes, "probe_requests": sp.probeRequests, "probe_lo_per_s": sp.probeLo,
		"probe_hi_per_s": sp.probeHi, "p90_limit_s": serveP90Limit, "setup_reps": sp.setupReps,
	}

	// Set-up: a fresh daemon and its plans, created over POST /v1/plans.
	ls := series{}
	var h http.Handler
	var keys []string
	var splitPlans []*core.Plan
	for i := 0; i < sp.setupReps; i++ {
		sec, _, err := measure(func() (err error) {
			h = serve.New(serve.Config{}).Handler()
			keys, err = createPlans(h, planBodies)
			return err
		})
		if err != nil {
			return err
		}
		ls.add("setup", sec)
		if o.Trace {
			splitPlans = splitServePlans(pts, p, r.spans, i, ls)
		}
	}

	c, err := newServeCorpus(sp, p, pts, keys, rngFor(o.Seed, r.Workload+"/charges"), ls)
	if err != nil {
		return err
	}
	// The served potentials are checked byte-identical to the library's,
	// so their accuracy is the library's, measured once per body.
	srng := rngFor(o.Seed, r.Workload+"/sample")
	var acc accuracy
	bodyProblem := make([]string, sp.bodies)
	for b := range c.bodies {
		g := c.plan[b]
		src := &particle.Set{X: pts[g].X, Y: pts[g].Y, Z: pts[g].Z, Q: c.charges[b]}
		bodyProblem[b] = acc.check(c.kernels[b], pts[g], src, metrics.SampleIndices(sp.n, sampledTargets, srng), c.phi[b])
	}
	for b := range c.bodies { // warm-up: every body once, in order
		res := c.send(h, b, time.Now(), time.Now(), nil, 0)
		if !res.match {
			return fmt.Errorf("warm-up request for body %d: status %d, potentials match %v", b, res.status, res.match)
		}
	}

	arng := rngFor(o.Seed, r.Workload+"/arrivals")
	arrivals := PoissonArrivals(arng, sp.rate, nA)
	picks := make([]int, nA)
	for i := range picks {
		picks[i] = arng.Intn(sp.bodies)
	}
	var rec *Recorder
	if o.Trace {
		rec = r.spans
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phaseA := openLoop(h, c, arrivals, picks, rec)
	runtime.ReadMemStats(&ms1)
	for _, res := range phaseA {
		problem := bodyProblem[res.body]
		if !res.match {
			problem = fmt.Sprintf("status %d, potentials byte-identical to Plan.Solve: %v", res.status, res.match)
		}
		r.checked(problem)
	}
	counters, err := scrapeMetrics(h)
	if err != nil {
		return err
	}
	r.detail("coalesce_mean_group", "count", counters["bltcd_coalesce_jobs_total"]/counters["bltcd_coalesce_groups_total"], nA)
	r.detail("plan_cache_hit_frac", "ratio", counters["bltcd_plan_cache_hits_total"]/
		(counters["bltcd_plan_cache_hits_total"]+counters["bltcd_plan_cache_misses_total"]), nA)
	r.detail("rejected", "count", counters["bltcd_rejected_total"], nA)
	lat, late := make([]float64, nA), make([]float64, nA)
	for i, res := range phaseA {
		lat[i], late[i] = res.latency, res.late
	}
	lateMax, _ := Percentile(late, 1)
	r.detail("gen_late_max_s", "s", lateMax, nA)

	if o.Trace {
		return traceServe(r, c, phaseA, splitPlans, ls)
	}

	// Phase B: the same probe schedule rescaled to each probed rate.
	prng := rngFor(o.Seed, r.Workload+"/probes")
	unit := PoissonArrivals(prng, 1, sp.probeRequests)
	probePicks := make([]int, sp.probeRequests)
	for i := range probePicks {
		probePicks[i] = prng.Intn(sp.bodies)
	}
	maxRPS := LogBisect(sp.probeLo, sp.probeHi, sp.probes, func(rate float64) bool {
		arr := make([]float64, len(unit))
		for i, t := range unit {
			arr[i] = t / rate
		}
		res := openLoop(h, c, arr, probePicks, nil)
		for _, x := range res {
			// A 429 is the probe's overload signal, not a wrong answer.
			if x.match || x.status == http.StatusTooManyRequests {
				r.checked("")
			} else {
				r.checked(fmt.Sprintf("phase B: status %d, potentials byte-identical to Plan.Solve: false", x.status))
			}
		}
		return probeOK(res)
	})

	models := make([]*core.Plan, sp.plans)
	for g := range models {
		if models[g], err = core.NewPlan(pts[g], pts[g], p); err != nil {
			return err
		}
	}
	var modeled, modeledSetup float64
	for b := range c.bodies {
		mt := core.ModelCPURun(models[c.plan[b]], c.kernels[b], perfmodel.XeonX5650())
		modeled += mt[perfmodel.PhasePrecompute] + mt[perfmodel.PhaseCompute]
	}
	for _, m := range models {
		modeledSetup += m.SetupWork(perfmodel.XeonX5650())
	}
	p50, _ := Percentile(lat, 0.5)
	r.metric("setup_s", ls.median("setup"), len(ls["setup"]))
	r.metric("op_s", p50, nA)
	r.metric("alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(nA), nA)
	r.metric("accuracy_digits", acc.digits(), sp.bodies)
	r.detail("modeled_s", "modeled_s", modeled/float64(sp.bodies), sp.bodies)
	r.detail("modeled_setup_s", "modeled_s", modeledSetup, sp.plans)
	r.detail("serve_max_rps", "1/s", maxRPS, sp.probes)
	tail(r, "serve", lat)
	return nil
}

// probeOK applies the phase B acceptance rule to one probe's results.
func probeOK(res []reqResult) bool {
	lat := make([]float64, len(res))
	for i, x := range res {
		if !x.match {
			return false
		}
		lat[i] = x.latency
	}
	return latencyOK(lat)
}

// latencyOK is the latency half of the phase B rule, for latencies in
// arrival order.
func latencyOK(lat []float64) bool {
	third := len(lat) / 3
	p90, _ := Percentile(lat, 0.9)
	return p90 <= serveP90Limit && Median(lat[len(lat)-third:]) <= serveGrowth*Median(lat[:third])
}

// newServeCorpus encodes the solve bodies and, from the library's own
// Plan.Solve on the same plans and charges, the response suffix each must
// produce. It also records each library solve's time in ls ("library").
func newServeCorpus(sp serveSpec, p core.Params, pts []*particle.Set, keys []string, qrng *rand.Rand, ls series) (*serveCorpus, error) {
	lib := make([]*barytree.Plan, len(pts))
	for g := range pts {
		var err error
		if lib[g], err = barytree.NewPlan(pts[g], pts[g], p); err != nil {
			return nil, err
		}
	}
	c := &serveCorpus{}
	for b := 0; b < sp.bodies; b++ {
		g := b % sp.plans
		spec := serve.KernelSpec{Name: "coulomb"}
		if (b/sp.plans)%4 == 3 {
			spec = serve.KernelSpec{Name: "yukawa", Kappa: 0.5}
		}
		k, err := spec.Build()
		if err != nil {
			return nil, err
		}
		q := signedCharges(qrng, sp.n)
		body, err := json.Marshal(serve.SolveRequest{Plan: keys[g], Kernel: &spec, Charges: q})
		if err != nil {
			return nil, err
		}
		var phi []float64
		sec, _, err := measure(func() (err error) {
			phi, err = lib[g].Solve(k, q)
			return err
		})
		if err != nil {
			return nil, err
		}
		ls.add("library", sec)
		enc, err := json.Marshal(phi)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
		c.expect = append(c.expect, append(append([]byte(`"phi":`), enc...), "}\n"...))
		c.plan = append(c.plan, g)
		c.kernels = append(c.kernels, k)
		c.charges = append(c.charges, q)
		c.phi = append(c.phi, phi)
	}
	return c, nil
}

// createPlans posts every plan body and returns the plan keys.
func createPlans(h http.Handler, planBodies [][]byte) ([]string, error) {
	keys := make([]string, len(planBodies))
	for g, body := range planBodies {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plans", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/plans: status %d: %s", w.Code, w.Body.String())
		}
		var resp serve.PlanResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return nil, fmt.Errorf("POST /v1/plans: %w", err)
		}
		keys[g] = resp.Plan
	}
	return keys, nil
}

// send runs body b through the handler, recording a "request" span on rec
// when it is non-nil.
func (c *serveCorpus) send(h http.Handler, b int, due, sent time.Time, rec *Recorder, op int) reqResult {
	id := -1
	if rec != nil {
		id = rec.Begin("request", -1, op, 0)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(c.bodies[b])))
	end := time.Now()
	if id >= 0 {
		rec.End(id)
	}
	return reqResult{
		body: b, latency: end.Sub(due).Seconds(), service: end.Sub(sent).Seconds(), late: sent.Sub(due).Seconds(),
		status: w.Code, match: w.Code == http.StatusOK && bytes.HasSuffix(w.Body.Bytes(), c.expect[b]),
	}
}

// openLoop sends request i (body picks[i]) at arrivals[i] seconds after the
// call, whether or not earlier requests have completed, each on its own
// goroutine straight into the handler: there are no sockets, so no
// connection limit caps the requests in flight. It returns once every
// request has completed. With rec non-nil, every even request records a
// span, so traced and untraced requests share one load.
func openLoop(h http.Handler, c *serveCorpus, arrivals []float64, picks []int, rec *Recorder) []reqResult {
	res := make([]reqResult, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for i, at := range arrivals {
		due := start.Add(time.Duration(at * float64(time.Second)))
		time.Sleep(time.Until(due))
		var traced *Recorder
		if i%2 == 0 {
			traced = rec
		}
		wg.Add(1)
		go func(i int, due, sent time.Time, traced *Recorder) {
			defer wg.Done()
			res[i] = c.send(h, picks[i], due, sent, traced, i)
		}(i, due, time.Now(), traced)
	}
	wg.Wait()
	return res
}

// scrapeMetrics reads the daemon's /metrics into name -> value.
func scrapeMetrics(h http.Handler) (map[string]float64, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", w.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// splitServePlans builds each plan's geometry with one call per layer, the
// work the daemon runs inside POST /v1/plans, and adds each layer's total
// over the plans to ls.
func splitServePlans(pts []*particle.Set, p core.Params, rec *Recorder, rep int, ls series) []*core.Plan {
	plans := make([]*core.Plan, len(pts))
	per := series{}
	root := rec.Begin("setup.split", -1, rep, 0)
	for g := range pts {
		plans[g] = splitNewPlan(pts[g], pts[g], p, rec, root, rep, per)
	}
	rec.End(root)
	for _, name := range []string{"tree", "batches", "lists", "grids"} {
		var sum float64
		for _, v := range per[name] {
			sum += v
		}
		ls.add(name, sum)
	}
	return plans
}

// traceServe reports the serving layers: each body's library solve split
// into its layers (checked byte-identical to the served potentials) and
// attributed to every traced request that carried it.
func traceServe(r *Run, c *serveCorpus, phaseA []reqResult, plans []*core.Plan, ls series) error {
	per := make([]series, len(c.bodies))
	codec := make([]float64, len(c.bodies))
	for b := range c.bodies {
		per[b] = series{}
		root := r.spans.Begin("library.split", -1, -1-b, 0)
		phi, err := splitSolve(plans[c.plan[b]], c.kernels[b], c.charges[b], r.spans, root, -1-b, per[b])
		if err != nil {
			return err
		}
		r.spans.End(root)
		problem := ""
		if !sameBits(phi, c.phi[b]) {
			problem = fmt.Sprintf("split library solve of body %d differs from Plan.Solve", b)
		}
		r.checked(problem)
		codec[b], _, err = measure(func() error {
			var req serve.SolveRequest
			if err := json.Unmarshal(c.bodies[b], &req); err != nil {
				return err
			}
			_, err := json.Marshal(serve.SolveResponse{Phi: phi})
			return err
		})
		if err != nil {
			return err
		}
	}
	var service []float64
	for i, res := range phaseA {
		if i%2 == 1 {
			ls.add("untraced", res.latency)
			continue
		}
		ls.add("op", res.latency)
		service = append(service, res.service)
		for _, name := range []string{"charges", "compute", "scatter", "charges_ns_per_flop", "compute_ns_per_interaction"} {
			ls.add(name, per[res.body][name][0])
		}
	}
	layerMetrics(r, ls, planCounts(plans...))
	r.detail("serve_service_s", "s", Median(service), len(service))
	r.detail("serve_library_s", "s", ls.median("library"), len(ls["library"]))
	r.detail("serve_overhead_s", "s", Median(service)-ls.median("library"), len(service))
	r.detail("serve_codec_s", "s", Median(codec), len(codec))
	return nil
}
