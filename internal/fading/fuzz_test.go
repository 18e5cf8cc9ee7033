package fading

import (
	"math"
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// FuzzExactSuccessInvariants drives Theorem 1 and Lemma 1 with arbitrary
// seeds, thresholds, probabilities, and noise levels: the exact probability
// must stay in [0, q_i] and inside the Lemma-1 sandwich on every input the
// fuzzer can construct.
func FuzzExactSuccessInvariants(f *testing.F) {
	f.Add(uint64(1), 2.5, 0.5, 4e-7)
	f.Add(uint64(2), 0.1, 1.0, 0.0)
	f.Add(uint64(3), 50.0, 0.01, 1.0)
	f.Add(uint64(42), 1.0, 0.99, 1e-12)
	f.Fuzz(func(t *testing.T, seed uint64, beta, prob, noise float64) {
		if !(beta > 0) || beta > 1e6 || math.IsNaN(beta) {
			t.Skip()
		}
		if math.IsNaN(prob) || prob < 0 || prob > 1 {
			t.Skip()
		}
		if math.IsNaN(noise) || noise < 0 || math.IsInf(noise, 0) {
			t.Skip()
		}
		cfg := network.Figure1Config()
		cfg.N = 8
		cfg.Noise = noise
		net, err := network.Random(cfg, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		m := net.Gains()
		q := UniformProbs(m.N, prob)
		for i := 0; i < m.N; i++ {
			p := ExactSuccess(m, q, beta, i)
			if math.IsNaN(p) || p < 0 || p > q[i]+1e-12 {
				t.Fatalf("Q_%d = %g outside [0, %g] (β=%g ν=%g)", i, p, q[i], beta, noise)
			}
			lo := LowerBound(m, q, beta, i)
			hi := UpperBound(m, q, beta, i)
			if lo > p+1e-12 || p > hi+1e-12 {
				t.Fatalf("bounds [%g,%g] miss Q_%d = %g (β=%g ν=%g)", lo, hi, i, p, beta, noise)
			}
			lp := ExactSuccessLog(m, q, beta, i)
			if p > 0 && math.Abs(math.Exp(lp)-p) > 1e-9*(1+p) {
				t.Fatalf("log form disagrees: exp(%g) vs %g", lp, p)
			}
		}
	})
}

// FuzzObservation1 stresses the two analytic inequalities behind Lemma 1
// over their full domains.
func FuzzObservation1(f *testing.F) {
	f.Add(0.5, 0.5)
	f.Add(1.0, 1.0)
	f.Add(1e-9, 0.3)
	f.Fuzz(func(t *testing.T, x, q float64) {
		if math.IsNaN(x) || math.IsNaN(q) {
			t.Skip()
		}
		q = math.Abs(math.Mod(q, 1))
		xUp := math.Abs(math.Mod(x, 1e6))
		if xUp > 0 {
			if lhs, rhs := Observation1Upper(xUp, q); lhs > rhs+1e-12 {
				t.Fatalf("upper inequality fails at x=%g q=%g: %g > %g", xUp, q, lhs, rhs)
			}
		}
		xLo := math.Abs(math.Mod(x, 1))
		if xLo > 0 {
			if lhs, rhs := Observation1Lower(xLo, q); lhs > rhs+1e-12 {
				t.Fatalf("lower inequality fails at x=%g q=%g: %g > %g", xLo, q, lhs, rhs)
			}
		}
	})
}

// FuzzCountSuccessesExact checks the early-exit success kernel against the
// full SINR pass on arbitrary gain matrices: zero gains where mask has a
// bit set, any noise level, any threshold (NaN, infinite and non-positive
// ones included) and any activity density. The counts, the success lists
// and the stream position must all agree with referenceSampleSINRs.
func FuzzCountSuccessesExact(f *testing.F) {
	f.Add(uint64(1), uint8(30), 0.5, 2.5, 4e-7, uint64(0))
	f.Add(uint64(2), uint8(1), 1.0, 2.5, 0.0, uint64(0))
	f.Add(uint64(3), uint8(12), 1.0, 0.0, 0.0, ^uint64(0))
	f.Add(uint64(4), uint8(20), 0.9, -1.0, 1.0, uint64(0x5555555555555555))
	f.Add(uint64(5), uint8(16), 0.7, 1e-3, 1e-12, uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, density, beta, noise float64, mask uint64) {
		if math.IsNaN(noise) || noise < 0 || math.IsInf(noise, 0) || math.IsNaN(density) {
			t.Skip()
		}
		n := 1 + int(size)%40
		src := rng.New(seed)
		g := make([][]float64, n)
		for j := range g {
			g[j] = make([]float64, n)
			for i := range g[j] {
				if mask>>uint((j*n+i)%64)&1 == 0 {
					g[j][i] = src.Exp(1)
				}
			}
		}
		m, err := network.NewMatrix(g, noise)
		if err != nil {
			t.Fatal(err)
		}
		p := math.Abs(math.Mod(density, 1))
		if density >= 1 {
			p = 1
		}
		checkSuccessesExact(t, m, randomActive(src, n, p), beta, src)
	})
}
