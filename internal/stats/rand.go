package stats

import "math"

// Rand is a small, fast, deterministic PRNG (xorshift64*). Every stochastic
// component in the repository draws from an explicitly seeded Rand so that
// traces, workloads and experiments are reproducible bit-for-bit; nothing
// uses global random state.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed (zero is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform float in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int64N returns a uniform integer in [0,n). n must be positive.
func (r *Rand) Int64N(n int64) int64 {
	if n <= 0 {
		panic("stats: Int64N with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// IntN returns a uniform integer in [0,n).
func (r *Rand) IntN(n int) int { return int(r.Int64N(int64(n))) }

// Exp returns an exponential variate with the given mean (inter-arrival
// times of Poisson traffic).
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normal variate (Box–Muller).
func (r *Rand) Normal(mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + std*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Pareto returns a bounded Pareto variate with shape alpha and scale xm.
// Heavy-tailed flow sizes in the CAIDA-like workloads use this.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf samples ranks in [0,n) with probability proportional to
// 1/(rank+1)^s using inverse-CDF over a precomputed table. Build one with
// NewZipf; sampling is O(log n).
type Zipf struct {
	cdf []float64
	rng *Rand
}

// NewZipf precomputes a Zipf(n, s) sampler. n must be positive and s >= 0
// (s == 0 degenerates to uniform).
func NewZipf(rng *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf n must be positive")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Sample returns a rank in [0,n); rank 0 is the most probable.
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
