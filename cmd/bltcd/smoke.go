package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"

	"barytree"
	"barytree/internal/serve"
)

// smokeGeometry builds a small deterministic point cloud for the smoke
// check.
func smokeGeometry(n int, seed int64) (*serve.PointsSpec, []float64) {
	rng := rand.New(rand.NewSource(seed))
	ps := &serve.PointsSpec{
		X: make([]float64, n),
		Y: make([]float64, n),
		Z: make([]float64, n),
	}
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		ps.X[i] = rng.Float64()
		ps.Y[i] = rng.Float64()
		ps.Z[i] = rng.Float64()
		q[i] = 2*rng.Float64() - 1
	}
	return ps, q
}

func postJSON(base, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// runSmoke starts an in-process daemon, creates a plan, runs one solve
// through the full HTTP path and verifies the potentials bit-for-bit
// against the library, then shuts down cleanly. This is the CI gate run by
// verify.sh.
func runSmoke(cfg serve.Config) error {
	base, shutdown, err := startLocal(cfg)
	if err != nil {
		return err
	}

	const n = 500
	pts, q := smokeGeometry(n, 1)
	params := &serve.ParamsSpec{Theta: 0.7, Degree: 4, LeafSize: 120, BatchSize: 120}

	var plan serve.PlanResponse
	if err := postJSON(base, "/v1/plans", serve.PlanRequest{
		GeometrySpec: serve.GeometrySpec{Targets: pts, Params: params},
	}, &plan); err != nil {
		return err
	}
	if !plan.Created || plan.Targets != n {
		return fmt.Errorf("unexpected plan response %+v", plan)
	}

	var sol serve.SolveResponse
	if err := postJSON(base, "/v1/solve", serve.SolveRequest{
		Plan:    plan.Plan,
		Kernel:  &serve.KernelSpec{Name: "coulomb"},
		Charges: q,
	}, &sol); err != nil {
		return err
	}
	if sol.Cache != "hit" {
		return fmt.Errorf("solve against a created plan reported cache %q", sol.Cache)
	}

	// The served potentials must match the one-shot library path exactly.
	set := &barytree.Particles{X: pts.X, Y: pts.Y, Z: pts.Z, Q: q}
	want, err := barytree.Solve(barytree.Coulomb(), set, set, barytree.Params{
		Theta: params.Theta, Degree: params.Degree,
		LeafSize: params.LeafSize, BatchSize: params.BatchSize,
	})
	if err != nil {
		return err
	}
	if len(sol.Phi) != len(want) {
		return fmt.Errorf("served %d potentials, library returned %d", len(sol.Phi), len(want))
	}
	for i := range want {
		if sol.Phi[i] != want[i] {
			return fmt.Errorf("phi[%d]: served %v, library %v", i, sol.Phi[i], want[i])
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}

	return shutdown()
}
