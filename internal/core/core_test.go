package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"barytree/internal/device"
	"barytree/internal/direct"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
	"barytree/internal/tree"
)

func testParticles(t *testing.T, n int, seed int64) *particle.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return particle.UniformCube(n, rng)
}

// chargedState returns a state holding pl's build-time charges with every
// node's modified charges computed by up to workers goroutines, whether an
// approximation reads them or not: Compute charges every node of a plan
// without lists, here a list-less view of pl.
func chargedState(pl *Plan, workers int) *ChargeState {
	st := NewChargeState(pl)
	st.Compute(&Plan{Sources: pl.Sources, Clusters: pl.Clusters, gen: pl.gen}, workers)
	return st
}

// asmModes runs check with the assembly kernels as installed and, where
// there are any, switched off, so the pure-Go loops (the Go charge update
// among them) run too; label names the mode.
func asmModes(check func(label string)) {
	check("installed")
	if kernel.AsmKernelsAvailable() {
		defer kernel.SetAsmKernels(kernel.SetAsmKernels(false))
		check("pure-go")
	}
}

// countCharged returns the number of nodes st holds modified charges for.
func countCharged(st *ChargeState) int {
	n := 0
	for _, c := range st.charged {
		if c {
			n++
		}
	}
	return n
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"default", DefaultParams(), true},
		{"theta zero", Params{Theta: 0, Degree: 4, LeafSize: 10, BatchSize: 10}, false},
		{"theta one", Params{Theta: 1, Degree: 4, LeafSize: 10, BatchSize: 10}, false},
		{"degree zero", Params{Theta: 0.5, Degree: 0, LeafSize: 10, BatchSize: 10}, false},
		{"leaf zero", Params{Theta: 0.5, Degree: 4, LeafSize: 0, BatchSize: 10}, false},
		{"batch zero", Params{Theta: 0.5, Degree: 4, LeafSize: 10, BatchSize: 0}, false},
		{"valid small", Params{Theta: 0.9, Degree: 1, LeafSize: 1, BatchSize: 1}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatalf("expected error for %+v", c.p)
			}
		})
	}
}

func TestCPUMatchesDirectSum(t *testing.T) {
	pts := testParticles(t, 4000, 1)
	k := kernel.Coulomb{}
	ref := direct.SumParallel(k, pts, pts, 0)

	for _, tc := range []struct {
		theta  float64
		degree int
		maxErr float64
	}{
		{0.5, 2, 1e-2},
		{0.5, 6, 1e-5},
		{0.7, 8, 1e-5},
		{0.9, 10, 1e-4},
	} {
		pl, err := NewPlan(pts, pts, Params{Theta: tc.theta, Degree: tc.degree, LeafSize: 200, BatchSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		res := RunCPU(pl, k, CPUOptions{})
		e := metrics.RelErr2(ref, res.Phi)
		if e > tc.maxErr {
			t.Errorf("theta=%g n=%d: error %.3g exceeds %.3g", tc.theta, tc.degree, e, tc.maxErr)
		}
		if e == 0 {
			t.Errorf("theta=%g n=%d: error exactly zero, approximation never engaged", tc.theta, tc.degree)
		}
	}
}

func TestCPUYukawaMatchesDirectSum(t *testing.T) {
	pts := testParticles(t, 3000, 2)
	k := kernel.Yukawa{Kappa: 0.5}
	ref := direct.SumParallel(k, pts, pts, 0)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 7, LeafSize: 150, BatchSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	res := RunCPU(pl, k, CPUOptions{})
	e := metrics.RelErr2(ref, res.Phi)
	if e > 1e-5 {
		t.Errorf("yukawa error %.3g too large", e)
	}
}

func TestErrorDecreasesWithDegree(t *testing.T) {
	pts := testParticles(t, 3000, 3)
	k := kernel.Coulomb{}
	ref := direct.SumParallel(k, pts, pts, 0)
	var prev float64 = math.Inf(1)
	for _, n := range []int{1, 3, 5, 7, 9} {
		pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: n, LeafSize: 100, BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		res := RunCPU(pl, k, CPUOptions{})
		e := metrics.RelErr2(ref, res.Phi)
		// Convergence is fast but allow small non-monotonic wiggle near
		// machine precision.
		if e > prev*1.5 && e > 1e-12 {
			t.Errorf("degree %d: error %.3g did not decrease from %.3g", n, e, prev)
		}
		prev = e
	}
	if prev > 1e-6 {
		t.Errorf("degree 9 error %.3g not small", prev)
	}
}

func TestErrorIncreasesWithTheta(t *testing.T) {
	pts := testParticles(t, 3000, 4)
	k := kernel.Coulomb{}
	ref := direct.SumParallel(k, pts, pts, 0)
	var errs []float64
	for _, theta := range []float64{0.3, 0.6, 0.9} {
		pl, err := NewPlan(pts, pts, Params{Theta: theta, Degree: 4, LeafSize: 100, BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		res := RunCPU(pl, k, CPUOptions{})
		errs = append(errs, metrics.RelErr2(ref, res.Phi))
	}
	if !(errs[0] < errs[2]) {
		t.Errorf("error at theta=0.3 (%.3g) should be below theta=0.9 (%.3g)", errs[0], errs[2])
	}
}

func TestDeviceMatchesCPU(t *testing.T) {
	pts := testParticles(t, 5000, 5)
	k := kernel.Yukawa{Kappa: 0.5}
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 200, BatchSize: 200}

	plCPU, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	cpu := RunCPU(plCPU, k, CPUOptions{})

	plGPU, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(perfmodel.TitanV(), 0)
	gpu := RunDevice(plGPU, k, dev, DeviceOptions{})

	// Same interaction lists, same arithmetic, different accumulation
	// order: results agree to tight tolerance.
	if e := metrics.RelErr2(cpu.Phi, gpu.Phi); e > 1e-13 {
		t.Errorf("device result deviates from CPU: rel err %.3g", e)
	}
}

func TestDeviceFasterThanCPUModel(t *testing.T) {
	// Leaf/batch sizes are chosen so leaves stay near the bound and GPU
	// kernels are large enough to saturate the device (the reason the
	// paper uses NB = NL ~ 2000-4000).
	pts := testParticles(t, 20000, 6)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.7, Degree: 6, LeafSize: 2500, BatchSize: 2500}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	cpu := RunCPU(pl, k, CPUOptions{})
	pl2, _ := NewPlan(pts, pts, p)
	gpu := RunDevice(pl2, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{})
	ratio := cpu.Times[perfmodel.PhaseCompute] / gpu.Times[perfmodel.PhaseCompute]
	if ratio < 40 {
		t.Errorf("modeled GPU compute speedup %.1fx implausibly low", ratio)
	}
	t.Logf("modeled compute speedup %.0fx (total %.0fx)", ratio, cpu.Times.Total()/gpu.Times.Total())
}

func TestAsyncStreamsReduceComputeTime(t *testing.T) {
	pts := testParticles(t, 20000, 7)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.8, Degree: 8, LeafSize: 2000, BatchSize: 2000}

	pl1, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	sync := RunDevice(pl1, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{Sync: true})

	pl2, _ := NewPlan(pts, pts, p)
	async := RunDevice(pl2, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{})

	ts, ta := sync.Times[perfmodel.PhaseCompute], async.Times[perfmodel.PhaseCompute]
	red := 1 - ta/ts
	if red < 0.05 || red > 0.75 {
		// The paper reports ~25% for the 1M-particle case; the exact
		// fraction depends on per-launch kernel size, but it must be a
		// substantial, not total, reduction.
		t.Errorf("async-stream reduction %.0f%% outside plausible band: sync=%.4g async=%.4g",
			100*red, ts, ta)
	}
	t.Logf("compute: sync=%.4gs async=%.4gs (%.0f%% reduction)", ts, ta, 100*red)

	// Results must be identical regardless of stream configuration.
	if e := metrics.RelErr2(sync.Phi, async.Phi); e != 0 {
		t.Errorf("stream configuration changed the numbers: rel err %.3g", e)
	}
}

func TestMixedPrecisionAccuracy(t *testing.T) {
	pts := testParticles(t, 5000, 8)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.7, Degree: 8, LeafSize: 200, BatchSize: 200}
	ref := direct.SumParallel(k, pts, pts, 0)

	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	fp64 := RunDevice(pl, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{})
	pl2, _ := NewPlan(pts, pts, p)
	fp32 := RunDevice(pl2, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{Precision: device.FP32})

	e64 := metrics.RelErr2(ref, fp64.Phi)
	e32 := metrics.RelErr2(ref, fp32.Phi)
	if e32 < e64 {
		t.Errorf("fp32 error %.3g unexpectedly below fp64 error %.3g", e32, e64)
	}
	if e32 > 1e-3 {
		t.Errorf("fp32 error %.3g implausibly large", e32)
	}
	// fp32 kernels run at twice the modeled rate.
	if fp32.Times[perfmodel.PhaseCompute] >= fp64.Times[perfmodel.PhaseCompute] {
		t.Errorf("fp32 compute (%.4g) not faster than fp64 (%.4g)",
			fp32.Times[perfmodel.PhaseCompute], fp64.Times[perfmodel.PhaseCompute])
	}
	t.Logf("fp64 err=%.3g fp32 err=%.3g", e64, e32)
}

func TestTargetsDifferentFromSources(t *testing.T) {
	sources := testParticles(t, 3000, 9)
	targets := testParticles(t, 1000, 10)
	k := kernel.Coulomb{}
	ref := direct.SumParallel(k, targets, sources, 0)
	pl, err := NewPlan(targets, sources, Params{Theta: 0.6, Degree: 6, LeafSize: 150, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := RunCPU(pl, k, CPUOptions{})
	if e := metrics.RelErr2(ref, res.Phi); e > 1e-5 {
		t.Errorf("disjoint targets/sources error %.3g too large", e)
	}
	if len(res.Phi) != targets.Len() {
		t.Errorf("got %d potentials, want %d", len(res.Phi), targets.Len())
	}
}

// TestNewPlanSharesSourceTree pins NewPlan's one-tree midpoint plan: with
// the targets at the sources' positions and BatchSize == LeafSize the
// batches are the source tree's leaves, and they must equal what a second
// build of the targets' tree gives (batches, target positions,
// permutation, stats, lists and modeled setup work). Only that plan shares
// the tree's particle storage.
func TestNewPlanSharesSourceTree(t *testing.T) {
	pts := testParticles(t, 3000, 91)
	recharged := pts.Clone()
	for i := range recharged.Q {
		recharged.Q[i] = 0.5 - 2*recharged.Q[i]
	}
	others := testParticles(t, 2000, 92)
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 64, BatchSize: 64, Workers: 2}
	nb := p
	nb.BatchSize = 100
	cpu := perfmodel.XeonX5650()
	for _, c := range []struct {
		name    string
		targets *particle.Set
		p       Params
		shared  bool
	}{
		{"one set", pts, p, true},
		{"position-equal copy", recharged, p, true},
		{"NB != NL", pts, nb, false},
		{"targets != sources", others, p, false},
	} {
		pl, err := NewPlan(c.targets, pts, c.p)
		if err != nil {
			t.Fatal(err)
		}
		ref := tree.BuildBatchesWorkers(c.targets, c.p.BatchSize, c.p.Workers)
		refLists := interaction.BuildListsWorkers(ref, pl.Sources, c.p.MAC(), c.p.Workers)
		got, tg := pl.Batches, pl.Batches.Targets
		if !reflect.DeepEqual(got.Batches, ref.Batches) || !reflect.DeepEqual(got.Perm, ref.Perm) ||
			got.Stats != ref.Stats || got.BatchSize != ref.BatchSize {
			t.Errorf("%s: batches, permutation or stats differ from the targets' own build", c.name)
		}
		if !reflect.DeepEqual([][]float64{tg.X, tg.Y, tg.Z}, [][]float64{ref.Targets.X, ref.Targets.Y, ref.Targets.Z}) {
			t.Errorf("%s: batch target positions differ from the targets' own build", c.name)
		}
		if !reflect.DeepEqual(pl.Lists, refLists) {
			t.Errorf("%s: lists differ from those on the targets' own build", c.name)
		}
		two := &Plan{Sources: pl.Sources, Batches: ref, Lists: refLists}
		if w, want := pl.SetupWork(cpu), two.SetupWork(cpu); w != want {
			t.Errorf("%s: SetupWork %v, two builds %v", c.name, w, want)
		}
		if shares := tg == pl.Sources.Particles; shares != c.shared {
			t.Errorf("%s: batch targets alias the source tree's particles: %v, want %v", c.name, shares, c.shared)
		}
	}
}

func TestSerialMatchesParallelCPU(t *testing.T) {
	pts := testParticles(t, 4000, 11)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 100}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	serial := RunCPU(pl, k, CPUOptions{Workers: 1})
	pl2, _ := NewPlan(pts, pts, p)
	parallel := RunCPU(pl2, k, CPUOptions{Workers: 8})
	for i := range serial.Phi {
		if serial.Phi[i] != parallel.Phi[i] {
			t.Fatalf("potential %d differs: serial %g parallel %g", i, serial.Phi[i], parallel.Phi[i])
		}
	}
}

// TestCPUOptionsDefaultWorkers pins the documented default: Workers = 0
// stays 0, so pool runs GOMAXPROCS goroutines, while the modeled CPU is
// still the paper's 6-core Xeon X5650. Potentials and modeled times match
// a serial run bit for bit.
func TestCPUOptionsDefaultWorkers(t *testing.T) {
	var o CPUOptions
	o.defaults()
	if o.Workers != 0 {
		t.Errorf("default Workers = %d, want 0 (GOMAXPROCS)", o.Workers)
	}
	if o.Spec != perfmodel.XeonX5650() {
		t.Errorf("default Spec = %+v, want the Xeon X5650", o.Spec)
	}

	pts := testParticles(t, 2000, 12)
	p := Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 100}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	def := RunCPU(pl, kernel.Coulomb{}, CPUOptions{})
	serial := RunCPU(pl, kernel.Coulomb{}, CPUOptions{Workers: 1})
	if def.Times != serial.Times {
		t.Errorf("modeled times: default %v, serial %v", def.Times, serial.Times)
	}
	for i := range serial.Phi {
		if def.Phi[i] != serial.Phi[i] {
			t.Fatalf("potential %d: default %g, serial %g", i, def.Phi[i], serial.Phi[i])
		}
	}
}

func TestChargeSumInvariant(t *testing.T) {
	// Partition of unity: for every cluster, sum_k qhat_k = sum_j q_j.
	pts := testParticles(t, 2000, 12)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 5, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := chargedState(pl, 0)
	for ni := range pl.Sources.Nodes {
		nd := &pl.Sources.Nodes[ni]
		var qsum float64
		for j := nd.Lo; j < nd.Hi; j++ {
			qsum += pl.Sources.Particles.Q[j]
		}
		var qhatSum float64
		for _, v := range st.Qhat[ni] {
			qhatSum += v
		}
		if math.Abs(qsum-qhatSum) > 1e-9*math.Max(1, math.Abs(qsum)) {
			t.Fatalf("node %d: sum qhat %.12g != sum q %.12g", ni, qhatSum, qsum)
		}
	}
}

func TestModelDirectSumOrdering(t *testing.T) {
	k := kernel.Coulomb{}
	cpu := perfmodel.XeonX5650()
	gpu := perfmodel.TitanV()
	n := 1_000_000
	tCPU := ModelDirectSumCPU(cpu, k, n, n)
	tGPU := ModelDirectSumDevice(gpu, k, n, n)
	if tGPU >= tCPU {
		t.Errorf("GPU direct sum (%.3g s) should beat CPU (%.3g s)", tGPU, tCPU)
	}
	ratio := tCPU / tGPU
	if ratio < 25 {
		t.Errorf("direct-sum GPU/CPU speedup %.0fx below the paper's >=25x", ratio)
	}
	t.Logf("direct sum 1M: cpu=%.1fs gpu=%.2fs (%.0fx)", tCPU, tGPU, ratio)
}

// TestDriversLeavePlanUnchanged pins that the plan holds geometry only:
// every driver charges into a ChargeState of its own, so after running
// them all the plan — particles, nodes, batches, lists, grids, points and
// Clusters.Qhat — still deep-equals an untouched plan built from the same
// input.
func TestDriversLeavePlanUnchanged(t *testing.T) {
	targets := testParticles(t, 1200, 61)
	sources := testParticles(t, 1500, 62)
	p := Params{Theta: 0.7, Degree: 3, LeafSize: 80, BatchSize: 70}
	newPlan := func() *Plan {
		pl, err := NewPlan(targets, sources, p)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	pl, want := newPlan(), newPlan()
	k := kernel.RegularizedCoulomb{Eps: 0.01}
	q := make([]float64, sources.Len())
	for i := range q {
		q[i] = float64(i%7) - 3
	}
	drivers := []struct {
		name string
		run  func()
	}{
		{"RunCPU", func() { RunCPU(pl, k, CPUOptions{}) }},
		{"RunCPU workers=1", func() { RunCPU(pl, k, CPUOptions{Workers: 1}) }},
		{"RunCPU workers=2", func() { RunCPU(pl, k, CPUOptions{Workers: 2}) }},
		{"RunCPUFields", func() { RunCPUFields(pl, k, CPUOptions{}) }},
		{"RunDevice", func() { RunDevice(pl, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{}) }},
		{"RunDevice fp32", func() {
			RunDevice(pl, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{Precision: device.FP32})
		}},
		{"RunDevice sync", func() { RunDevice(pl, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{Sync: true}) }},
		{"RunDevice model-only", func() {
			RunDevice(pl, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{ModelOnly: true})
		}},
		{"EvaluateSampled", func() {
			if _, err := EvaluateSampled(pl, k, NewChargeState(pl), []int{0, 17, 1199}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SolvePotentials", func() {
			st := NewChargeState(pl)
			if err := st.SetCharges(pl, q); err != nil {
				t.Fatal(err)
			}
			SolvePotentials(pl, k, st, 0)
			SolvePotentials(pl, k, st, 0)
		}},
		{"SolveFields", func() { SolveFields(pl, k, NewChargeState(pl), 0) }},
	}
	for _, d := range drivers {
		d.run()
		if !reflect.DeepEqual(pl, want) {
			t.Fatalf("%s changed the plan", d.name)
		}
	}
}
