// Package serve is the solver-as-a-service layer of the treecode: a
// stdlib-only net/http API that evaluates solve requests against a cache
// of immutable Plans keyed by geometry hash.
//
// The design rests on the Plan/request-state split (DESIGN.md §6): the
// setup phase's output — tree, batches, interaction lists, Chebyshev
// grids — depends only on particle positions and parameters, is immutable
// after construction, and is therefore shareable by any number of
// concurrent requests; everything a request mutates (charges, modified
// charges, potentials) lives in a per-request core.ChargeState. The
// daemon turns that split into two serving mechanisms:
//
//   - plan cache: requests carrying the same geometry (bit-for-bit) map
//     to one cached Plan (single-flight build, LRU-bounded); the setup
//     phase — the dominant cost of a one-shot solve — is paid once per
//     geometry instead of once per request.
//   - admission control: a bounded number of in-flight solves; excess
//     load is rejected immediately with 429 + Retry-After instead of
//     queueing without bound.
//
// Every served solve is core.SolvePotentials on the request goroutine,
// with a ChargeState pooled by the plan's cache entry: the sequence
// Plan.Solve runs, so served potentials equal the library's by
// construction. Request bodies are decoded in one pass (wire.go), with
// the bits encoding/json would give every coordinate and charge.
//
// Observability: /metrics exposes serving counters and latency quantiles
// plus the plan-cache and tracer counters; /trace exports the daemon's
// modeled-time span record (plan builds, each solve's precompute and
// compute) as Chrome trace-event JSON via internal/trace. See
// docs/serving.md for the endpoint reference and worked examples.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/trace"
)

// Config tunes the daemon. The zero value is serviceable: paper-default
// params accepted per request, DefaultMaxPlans cached plans, 64 in-flight
// solves, 256 MiB request bodies.
type Config struct {
	// MaxPlans bounds the plan cache (LRU eviction beyond it); <= 0
	// selects DefaultMaxPlans.
	MaxPlans int
	// MaxInFlight bounds concurrently admitted solve requests; further
	// requests receive 429 + Retry-After. <= 0 selects 64. A request
	// holds its slot until its response is written, so the bound also
	// bounds the daemon's transient per-request memory.
	MaxInFlight int
	// Workers bounds the host goroutines of each setup/charge/compute
	// pass (<= 0 selects all cores). Results are bit-identical for every
	// value; this only trades single-request latency against throughput
	// under concurrency.
	Workers int
	// MaxRequestBytes caps a request body; <= 0 selects 256 MiB (a 1M-
	// particle inline geometry is ~75 MB of JSON).
	MaxRequestBytes int64
	// TraceSpans caps the spans kept by the daemon's tracer (counters are
	// unaffected); <= 0 selects 4096. The cap keeps /trace memory bounded
	// on a long-lived daemon: once reached, new spans are dropped.
	TraceSpans int
}

// Server is the serving layer: plan cache, admission control, metrics and
// trace. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	cache   *PlanCache
	metrics *Metrics
	tracer  *trace.Tracer
	admit   chan struct{}
	cpu     perfmodel.CPUSpec

	// clockMu guards clockNow, the daemon's modeled timeline: solves and
	// plan builds append their modeled durations here, giving
	// /trace a deterministic time axis (internal/trace records modeled
	// seconds, never wall-clock).
	clockMu  sync.Mutex
	clockNow float64
}

// advance reserves [t, t+d) on the modeled timeline and returns t.
func (s *Server) advance(d float64) float64 {
	s.clockMu.Lock()
	t := s.clockNow
	s.clockNow += d
	s.clockMu.Unlock()
	return t
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 256 << 20
	}
	if cfg.TraceSpans <= 0 {
		cfg.TraceSpans = 4096
	}
	return &Server{
		cfg:     cfg,
		cache:   NewPlanCache(cfg.MaxPlans),
		metrics: &Metrics{},
		tracer:  trace.New(),
		admit:   make(chan struct{}, cfg.MaxInFlight),
		cpu:     perfmodel.XeonX5650(),
	}
}

// Metrics returns the server's metrics aggregator (shared, live).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer returns the server's tracer (shared, live).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/plans        run (or reuse) the setup phase for a geometry
//	GET    /v1/plans        list cached plans + cache stats
//	GET    /v1/plans/{key}  inspect one cached plan
//	DELETE /v1/plans/{key}  invalidate one cached plan
//	POST   /v1/solve        solve against a cached plan or inline geometry
//	GET    /metrics         serving counters + latency quantiles (text)
//	GET    /trace           modeled-time spans (Chrome trace-event JSON)
//	GET    /healthz         liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plans", s.handlePlanCreate)
	mux.HandleFunc("GET /v1/plans", s.handlePlanList)
	mux.HandleFunc("GET /v1/plans/{key}", s.handlePlanGet)
	mux.HandleFunc("DELETE /v1/plans/{key}", s.handlePlanDelete)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore errdrop status line already committed by WriteHeader; an encode failure here has no channel back to the client
	_ = enc.Encode(v)
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// buildPlan runs the setup phase for a resolved geometry and records its
// modeled build span and counters.
func (s *Server) buildPlan(key string, targets, sources *particle.Set, p core.Params) (*core.Plan, error) {
	pl, err := core.NewPlan(targets, sources, p)
	if err != nil {
		return nil, err
	}
	setup := pl.SetupWork(s.cpu)
	t0 := s.advance(setup)
	s.emitSpan(trace.Span{
		Name: "serve.plan.build", Cat: trace.CatBuild, Track: trace.TrackHost,
		Start: t0, End: t0 + setup,
		Args: []trace.Arg{trace.A("plan", shortKey(key)), trace.A("sources", sources.Len()), trace.A("targets", targets.Len())},
	})
	s.tracer.Add("serve.plan.builds", 1)
	return pl, nil
}

// emitSpan records a span unless the daemon's span cap is reached
// (counters keep accumulating past the cap).
func (s *Server) emitSpan(sp trace.Span) {
	if s.tracer.Len() >= s.cfg.TraceSpans {
		return
	}
	s.tracer.Emit(sp)
}

// traceSolve records one solve's modeled precompute and compute spans on
// the daemon timeline.
func (s *Server) traceSolve(key string, pl *core.Plan, k kernel.Kernel) {
	mt := core.ModelCPURun(pl, k, s.cpu)
	pre, comp := mt[perfmodel.PhasePrecompute], mt[perfmodel.PhaseCompute]
	t0 := s.advance(pre + comp)
	args := []trace.Arg{trace.A("plan", shortKey(key))}
	s.emitSpan(trace.Span{
		Name: "serve.precompute", Cat: trace.CatPhase, Track: trace.TrackHost,
		Start: t0, End: t0 + pre, Args: args,
	})
	s.emitSpan(trace.Span{
		Name: "serve.compute", Cat: trace.CatPhase, Track: trace.TrackHost,
		Start: t0 + pre, End: t0 + pre + comp, Args: args,
	})
}

// shortKey abbreviates a plan key for span args.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func (s *Server) handlePlanCreate(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	body, err := readBody(w, r, s.cfg.MaxRequestBytes)
	if err == nil {
		req, err = decodePlanRequest(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	targets, sources, p, err := req.resolve(s.cfg.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := GeometryKey(targets, sources, p)
	e, hit, err := s.cache.GetOrBuild(key, func() (*core.Plan, error) {
		return s.buildPlan(key, targets, sources, p)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "plan build failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, PlanResponse{PlanInfo: planInfo(e), Created: !hit})
}

// planInfo snapshots a ready entry for responses.
func planInfo(e *planEntry) PlanInfo {
	pl := e.Plan()
	return PlanInfo{
		Plan:    e.Key,
		Targets: pl.Batches.Targets.Len(),
		Sources: pl.Sources.Particles.Len(),
		Nodes:   len(pl.Sources.Nodes),
		Batches: len(pl.Batches.Batches),
		Hits:    e.hits.Load(),
	}
}

func (s *Server) handlePlanList(w http.ResponseWriter, r *http.Request) {
	infos := s.cache.List()
	stats, _ := s.cache.Stats()
	resp := PlanListResponse{Plans: make([]PlanInfo, 0, len(infos)), Stats: stats}
	for _, in := range infos {
		resp.Plans = append(resp.Plans, PlanInfo{
			Plan: in.Key, Targets: in.Targets, Sources: in.Sources,
			Nodes: in.Nodes, Batches: in.Batches, Hits: in.Hits, Building: in.Building,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlanGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e := s.cache.Get(key)
	if e == nil {
		writeError(w, http.StatusNotFound, "unknown plan %q", key)
		return
	}
	writeJSON(w, http.StatusOK, planInfo(e))
}

func (s *Server) handlePlanDelete(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !s.cache.Invalidate(key) {
		writeError(w, http.StatusNotFound, "unknown plan %q", key)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Admission control: bounded in-flight solves, immediate rejection
	// beyond the bound. Retry-After tells well-behaved clients to back
	// off; /metrics counts how often this fires.
	select {
	case s.admit <- struct{}{}:
		defer func() { <-s.admit }()
	default:
		s.metrics.ObserveRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "solver saturated (%d in flight); retry", cap(s.admit))
		return
	}
	start := time.Now()

	var req SolveRequest
	body, err := readBody(w, r, s.cfg.MaxRequestBytes)
	if err == nil {
		req, err = decodeSolveRequest(body)
	}
	if err != nil {
		s.metrics.ObserveError()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := req.Kernel.Build()
	if err != nil {
		s.metrics.ObserveError()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Charges) == 0 {
		s.metrics.ObserveError()
		writeError(w, http.StatusBadRequest, "charges required")
		return
	}

	// Resolve the plan: by key, or by inline geometry (cached implicitly
	// under its hash, so repeating the same geometry hits).
	var e *planEntry
	hit := true
	switch {
	case req.Plan != "":
		e = s.cache.Get(req.Plan)
		if e == nil {
			s.metrics.ObserveError()
			writeError(w, http.StatusNotFound,
				"unknown plan %q (expired or never created): POST /v1/plans or send inline geometry", req.Plan)
			return
		}
	case req.Targets != nil:
		targets, sources, p, rerr := req.resolve(s.cfg.Workers)
		if rerr != nil {
			s.metrics.ObserveError()
			writeError(w, http.StatusBadRequest, "%v", rerr)
			return
		}
		key := GeometryKey(targets, sources, p)
		var berr error
		e, hit, berr = s.cache.GetOrBuild(key, func() (*core.Plan, error) {
			return s.buildPlan(key, targets, sources, p)
		})
		if berr != nil {
			s.metrics.ObserveError()
			writeError(w, http.StatusBadRequest, "plan build failed: %v", berr)
			return
		}
	default:
		s.metrics.ObserveError()
		writeError(w, http.StatusBadRequest, "either plan key or inline geometry (targets) required")
		return
	}

	pl := e.Plan()
	st, _ := e.states.Get().(*core.ChargeState)
	if st == nil {
		st = core.NewChargeState(pl)
	}
	if err := st.SetCharges(pl, req.Charges); err != nil {
		e.states.Put(st)
		s.metrics.ObserveError()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	phi := core.SolvePotentials(pl, k, st, s.cfg.Workers)
	e.states.Put(st)
	s.traceSolve(e.Key, pl, k)
	// JSON has no Inf or NaN, and writeJSON commits the status before it
	// encodes: check here, while a 4xx can still be sent.
	for i, v := range phi {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			s.metrics.ObserveError()
			writeError(w, http.StatusBadRequest,
				"potentials overflow float64 (phi[%d] = %v), which JSON cannot carry: rescale the charges or coordinates", i, v)
			return
		}
	}
	s.tracer.Add("serve.solves", 1)
	cacheState := "hit"
	if !hit {
		cacheState = "miss"
	}
	s.metrics.ObserveSolve(time.Since(start).Seconds(), hit)
	writeJSON(w, http.StatusOK, SolveResponse{
		Plan: e.Key, Cache: cacheState, Phi: phi,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats, size := s.cache.Stats()
	extra := []string{
		fmt.Sprintf("bltcd_inflight %d", len(s.admit)),
		fmt.Sprintf("bltcd_inflight_max %d", cap(s.admit)),
		fmt.Sprintf("bltcd_plan_cache_size %d", size),
		fmt.Sprintf("bltcd_plan_cache_hits_total %d", stats.Hits),
		fmt.Sprintf("bltcd_plan_cache_misses_total %d", stats.Misses),
		fmt.Sprintf("bltcd_plan_cache_builds_total %d", stats.Builds),
		fmt.Sprintf("bltcd_plan_cache_build_errors_total %d", stats.BuildErrors),
		fmt.Sprintf("bltcd_plan_cache_evictions_total %d", stats.Evictions),
		fmt.Sprintf("bltcd_plan_cache_invalidations_total %d", stats.Invalidations),
	}
	// Tracer counters come pre-sorted by name from Counters().
	for _, c := range s.tracer.Counters() {
		extra = append(extra, fmt.Sprintf("bltcd_trace{counter=%q} %g", c.Name, c.Value))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.WriteText(w, extra...)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop best-effort trace export to a committed response; a write failure means the client went away
	_ = s.tracer.WriteChrome(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
