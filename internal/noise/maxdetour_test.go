package noise

import (
	"math"
	"testing"

	"mklite/internal/sim"
	"mklite/internal/stats"
)

func TestNormInvRoundTrip(t *testing.T) {
	// normInv must invert the empirical normal CDF: check known
	// quantiles.
	cases := []struct{ p, z float64 }{
		{0.5, 0}, {0.8413, 1.0}, {0.1587, -1.0}, {0.9772, 2.0}, {0.99865, 3.0},
	}
	for _, c := range cases {
		if got := normInv(c.p); math.Abs(got-c.z) > 0.01 {
			t.Fatalf("normInv(%v) = %v, want %v", c.p, got, c.z)
		}
	}
	if !math.IsInf(normInv(0), -1) || !math.IsInf(normInv(1), 1) {
		t.Fatal("edge values")
	}
}

func TestNormInvAgainstSampler(t *testing.T) {
	rng := sim.NewRNG(17)
	var xs []float64
	for i := 0; i < 100000; i++ {
		xs = append(xs, rng.NormFloat64())
	}
	for _, p := range []float64{10, 50, 90, 99} {
		want := normInv(p / 100)
		got := stats.Percentile(xs, p)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("P%v: sampler %v vs normInv %v", p, got, want)
		}
	}
}

func TestMaxDetourZeroCases(t *testing.T) {
	p := LinuxTuned()
	rng := sim.NewRNG(1)
	if maxDetour(rng, p, 0, sim.Millisecond) != 0 {
		t.Fatal("zero ranks")
	}
	if maxDetour(rng, p, 64, 0) != 0 {
		t.Fatal("zero window")
	}
	quiet := &Profile{Name: "quiet"}
	if maxDetour(rng, quiet, 1<<20, sim.Second) != 0 {
		t.Fatal("quiet profile")
	}
}

func TestMaxDetourGrowsWithRanks(t *testing.T) {
	// The amplification law: median max detour must grow as rank count
	// grows — this is the paper's scaling cliff in miniature.
	p := LinuxTuned()
	rng := sim.NewRNG(2)
	window := 10 * sim.Millisecond
	med := func(ranks int) float64 {
		var xs []float64
		for i := 0; i < 200; i++ {
			xs = append(xs, float64(maxDetour(rng, p, ranks, window)))
		}
		return stats.Median(xs)
	}
	m64, m4k, m128k := med(64), med(4096), med(131072)
	if !(m64 < m4k && m4k < m128k) {
		t.Fatalf("max detour not growing: %v %v %v", m64, m4k, m128k)
	}
}

func TestMaxDetourLWKStaysTiny(t *testing.T) {
	p := McKernelProfile()
	rng := sim.NewRNG(3)
	window := 10 * sim.Millisecond
	var worst sim.Duration
	for i := 0; i < 100; i++ {
		if d := maxDetour(rng, p, 131072, window); d > worst {
			worst = d
		}
	}
	// Even over 128k LWK ranks the worst detour stays below 50us —
	// no tail to amplify.
	if worst > 50*sim.Microsecond {
		t.Fatalf("LWK max detour %v too large", worst)
	}
}

func TestMaxDetourApproxConsistentWithExact(t *testing.T) {
	// At the exact/approx boundary the two paths must agree in order of
	// magnitude (medians within 4x).
	p := LinuxTuned()
	window := 20 * sim.Millisecond
	medFor := func(ranks int, seed uint64) float64 {
		rng := sim.NewRNG(seed)
		var xs []float64
		for i := 0; i < 300; i++ {
			xs = append(xs, float64(maxDetour(rng, p, ranks, window)))
		}
		return stats.Median(xs)
	}
	exact := medFor(1024, 4)  // exact path
	approx := medFor(1025, 5) // approximation path
	ratio := approx / exact
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("exact %v vs approx %v: ratio %v", exact, approx, ratio)
	}
}

func TestMaxDetourCoreFilteredSourceExcluded(t *testing.T) {
	// A core-0-only source must not contribute to application-core
	// maxima on the approximation path.
	p := &Profile{Sources: []Source{{
		Name:       "core0-only",
		Period:     sim.Millisecond,
		Mean:       sim.Millisecond,
		CoreFilter: func(core int) bool { return core == 0 },
	}}}
	rng := sim.NewRNG(6)
	if d := maxDetour(rng, p, 1<<20, 10*sim.Millisecond); d != 0 {
		t.Fatalf("filtered source leaked %v", d)
	}
}

func TestMaxDetourAtLeastSingleRankDetour(t *testing.T) {
	// Statistically, max over many ranks dominates a single rank's
	// detour: compare means.
	p := LinuxTuned()
	rng := sim.NewRNG(7)
	window := 10 * sim.Millisecond
	var one, many float64
	const n = 300
	for i := 0; i < n; i++ {
		one += float64(p.DetourIn(rng, 1, window, nil))
		many += float64(maxDetour(rng, p, 65536, window))
	}
	if many <= one {
		t.Fatalf("max over 64k ranks (%v) not above single rank (%v)", many/n, one/n)
	}
}

// maxDetour is MaxDetourRank without the straggler rank.
func maxDetour(rng *sim.RNG, p *Profile, ranks int, window sim.Duration) sim.Duration {
	d, _ := MaxDetourRank(rng, p, ranks, window)
	return d
}
