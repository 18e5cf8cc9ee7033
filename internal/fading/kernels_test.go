package fading

import (
	"math"
	"slices"
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// referenceSampleSINRs is the pre-kernel implementation of SampleSINRs: a
// full O(n²) pass over the matrix, skipping inactive pairs, allocating its
// result. The kernels must reproduce its output draw-for-draw; keeping the
// old loop here pins that contract against an independent implementation.
func referenceSampleSINRs(m *network.Matrix, active []bool, src *rng.Source) []float64 {
	out := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		if !active[i] {
			continue
		}
		interf := m.Noise
		var own float64
		for j := 0; j < m.N; j++ {
			if !active[j] {
				continue
			}
			s := src.Exp(m.At(j, i))
			if j == i {
				own = s
			} else {
				interf += s
			}
		}
		if interf == 0 {
			if own > 0 {
				out[i] = math.Inf(1)
			}
			continue
		}
		out[i] = own / interf
	}
	return out
}

// randomActive draws an activity vector with density p.
func randomActive(src *rng.Source, n int, p float64) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = src.Bernoulli(p)
	}
	return active
}

func TestSampleSINRsIntoMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 40, 100} {
		m := randomMatrix(t, uint64(n), n)
		vals := make([]float64, n)
		idx := make([]int, 0, n)
		setup := rng.New(uint64(100 + n))
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			active := randomActive(setup, n, density)
			src := rng.New(uint64(7 * n))
			want := referenceSampleSINRs(m, active, src.Clone())
			got := SampleSINRsInto(m, active, src.Clone(), vals, idx)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d density=%.1f link %d: kernel %g, reference %g", n, density, i, got[i], want[i])
				}
			}
			// The two paths must also leave the stream at the same position.
			ref, ker := src.Clone(), src.Clone()
			referenceSampleSINRs(m, active, ref)
			SampleSINRsInto(m, active, ker, vals, idx)
			if ref.Uint64() != ker.Uint64() {
				t.Fatalf("n=%d density=%.1f: kernel consumed a different number of draws", n, density)
			}
		}
	}
}

func TestSampleSINRsWrapperMatchesKernel(t *testing.T) {
	m := randomMatrix(t, 3, 50)
	active := randomActive(rng.New(4), 50, 0.6)
	src := rng.New(5)
	a := SampleSINRs(m, active, src.Clone())
	b := SampleSINRsInto(m, active, src.Clone(), make([]float64, 50), make([]int, 0, 50))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d: wrapper %g, kernel %g", i, a[i], b[i])
		}
	}
}

func TestCountSuccessesMatchesSampleSuccesses(t *testing.T) {
	m := randomMatrix(t, 6, 80)
	vals := make([]float64, 80)
	idx := make([]int, 0, 80)
	setup := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		active := randomActive(setup, 80, setup.Float64())
		src := rng.New(uint64(1000 + trial))
		want := len(SampleSuccesses(m, active, 2.5, src.Clone()))
		got := CountSuccesses(m, active, 2.5, src.Clone(), vals, idx)
		if want != got {
			t.Fatalf("trial %d: CountSuccesses %d, SampleSuccesses %d", trial, got, want)
		}
	}
}

// checkSuccessesExact asserts that CountSuccesses and SuccessesInto reach
// the verdicts of a full SINR pass (referenceSampleSINRs compared with β)
// and leave the stream exactly where the full pass leaves it: the early exit
// may skip logarithms, never draws.
func checkSuccessesExact(t *testing.T, m *network.Matrix, active []bool, beta float64, src *rng.Source) {
	t.Helper()
	ref := src.Clone()
	vals := referenceSampleSINRs(m, active, ref)
	var want []int
	for i, a := range active {
		if a && vals[i] >= beta {
			want = append(want, i)
		}
	}
	out := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	ker := src.Clone()
	if got := CountSuccesses(m, active, beta, ker, out, idx); got != len(want) {
		t.Fatalf("β=%g: CountSuccesses %d, full SINR pass %d", beta, got, len(want))
	}
	if ker.State() != ref.State() {
		t.Fatalf("β=%g: CountSuccesses left the stream at a different position", beta)
	}
	ker = src.Clone()
	got := SuccessesInto(m, active, beta, ker, out, idx, make([]int, 0, m.N))
	if !slices.Equal(got, want) {
		t.Fatalf("β=%g: SuccessesInto %v, full SINR pass %v", beta, got, want)
	}
	if ker.State() != ref.State() {
		t.Fatalf("β=%g: SuccessesInto left the stream at a different position", beta)
	}
}

// TestCountSuccessesExact pins the early-exit kernel to the full SINR pass,
// count and stream position, on the edge cases of the exit rule: no noise,
// a zero own gain, zero cross gains, rows with no interference at all,
// thresholds at or below zero (which every link meets), one active link
// and every link active.
func TestCountSuccessesExact(t *testing.T) {
	noNoise := randomMatrix(t, 21, 40)
	noNoise.Noise = 0
	zeroOwn := randomMatrix(t, 22, 40)
	for i := 0; i < 40; i += 3 {
		zeroOwn.SetGain(i, i, 0)
	}
	zeroCross := randomMatrix(t, 23, 40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if j != i && (i+j)%2 == 0 {
				zeroCross.SetGain(j, i, 0)
			}
		}
	}
	// Receiver-side diagonal matrices: with ν = 0 every interference sum is
	// exactly 0, so the SINR is +Inf, or 0 for the zero own gain.
	diag := func(noise float64) *network.Matrix {
		g := [][]float64{{1, 0, 0, 0}, {0, 3, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 1e-9}}
		return mat(t, g, noise)
	}
	one := make([]bool, 40)
	one[17] = true
	cases := []struct {
		name    string
		m       *network.Matrix
		density float64
		active  []bool
	}{
		{"paper", randomMatrix(t, 20, 100), 0.5, nil},
		{"sparse", randomMatrix(t, 24, 100), 0.1, nil},
		{"all active", randomMatrix(t, 25, 40), 1, nil},
		{"one active", randomMatrix(t, 26, 40), 0, one},
		{"no noise", noNoise, 0.6, nil},
		{"zero own gain", zeroOwn, 0.8, nil},
		{"zero cross gains", zeroCross, 0.8, nil},
		{"no interference, noise", diag(0.5), 1, nil},
		{"no interference, no noise", diag(0), 1, nil},
	}
	betas := []float64{2.5, 1, 1e-3, 1e9, 0, -1, math.Inf(1), math.NaN()}
	setup := rng.New(27)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				active := c.active
				if active == nil {
					active = randomActive(setup, c.m.N, c.density)
				}
				for _, beta := range betas {
					checkSuccessesExact(t, c.m, active, beta, rng.New(uint64(100*trial+1)))
				}
			}
		})
	}
}

func TestSampleSINRsWithIntoMatchesAllocatingForm(t *testing.T) {
	m := randomMatrix(t, 8, 60)
	active := randomActive(rng.New(9), 60, 0.5)
	vals := make([]float64, 60)
	idx := make([]int, 0, 60)
	for _, sampler := range []GainSampler{RayleighGains{}, NakagamiGains{M: 2}, NonFadingGains{}} {
		src := rng.New(10)
		want := SampleSINRsWith(m, active, sampler, src.Clone())
		got := SampleSINRsWithInto(m, active, sampler, src.Clone(), vals, idx)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s link %d: kernel %g, allocating form %g", sampler.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestRayleighKernelMatchesGenericKernel pins that the specialized Rayleigh
// kernel and the GainSampler-generic kernel consume the identical stream, so
// experiments may switch between them without breaking fixed-seed outputs.
func TestRayleighKernelMatchesGenericKernel(t *testing.T) {
	m := randomMatrix(t, 11, 60)
	active := randomActive(rng.New(12), 60, 0.7)
	src := rng.New(13)
	a := SampleSINRsInto(m, active, src.Clone(), make([]float64, 60), make([]int, 0, 60))
	b := SampleSINRsWithInto(m, active, RayleighGains{}, src.Clone(), make([]float64, 60), make([]int, 0, 60))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d: rayleigh kernel %g, generic kernel %g", i, a[i], b[i])
		}
	}
}

func TestKernelsAllocationFree(t *testing.T) {
	m := randomMatrix(t, 14, 100)
	active := randomActive(rng.New(15), 100, 0.5)
	vals := make([]float64, 100)
	idx := make([]int, 0, 100)
	src := rng.New(16)
	if allocs := testing.AllocsPerRun(50, func() {
		SampleSINRsInto(m, active, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("SampleSINRsInto allocates %.1f objects per run", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		CountSuccesses(m, active, 2.5, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("CountSuccesses allocates %.1f objects per run", allocs)
	}
	succ := make([]int, 0, 100)
	if allocs := testing.AllocsPerRun(50, func() {
		SuccessesInto(m, active, 2.5, src, vals, idx, succ)
	}); allocs != 0 {
		t.Errorf("SuccessesInto allocates %.1f objects per run", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		SampleSINRsWithInto(m, active, RayleighGains{}, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("SampleSINRsWithInto allocates %.1f objects per run", allocs)
	}
	// The closed-form evaluator is part of the kernel layer's zero-alloc
	// contract too: the benchmark suite pins fading/expected-successes-100 at
	// exactly 0 allocs/op, so any stray allocation on this path is a bug.
	q := UniformProbs(100, 0.3)
	if allocs := testing.AllocsPerRun(50, func() {
		ExpectedSuccessesExact(m, q, 2.5)
	}); allocs != 0 {
		t.Errorf("ExpectedSuccessesExact allocates %.1f objects per run", allocs)
	}
}

func TestKernelScratchValidation(t *testing.T) {
	m := randomMatrix(t, 17, 10)
	active := make([]bool, 10)
	src := rng.New(18)
	for name, fn := range map[string]func(){
		"short out": func() { SampleSINRsInto(m, active, src, make([]float64, 9), make([]int, 0, 10)) },
		"short idx": func() { SampleSINRsInto(m, active, src, make([]float64, 10), make([]int, 0, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
