package main

// rng is a splitmix64 generator: every input derives from the run's
// seed through it, so one seed always gives the same inputs.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// dyadic returns a multiple of 1/16 below 65536. Sums of up to 2^33 such
// values are exact in a double, so aggregates do not depend on the
// order rows are added in.
func (r *rng) dyadic() float64 { return float64(r.intn(1<<20)) / 16 }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
