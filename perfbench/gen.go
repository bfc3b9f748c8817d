package main

import (
	"math"
	"sort"

	"serpentine/internal/tertiary"
)

// The benchmark generates every input itself, from the --seed argument
// alone, so a change to the program can never change what the
// benchmark feeds it. The generator is splitmix64: tiny, fully
// specified, and independent of any library's random-number stream.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (arrivals,
// popularity, locality, ...) from the run seed, so extra draws in one
// stream never shift another.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponential draw with the given rate.
func (r *rng) exp(rate float64) float64 { return -math.Log(1-r.float()) / rate }

// perm returns a uniform permutation of [0, n).
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

// zipf draws item indices in [0, n) with Zipf(skew) popularity; the
// popularity ranks are scattered by a seeded permutation so the hot
// items are not all on one cartridge.
type zipf struct {
	r    *rng
	cum  []float64
	perm []int
}

func newZipf(r *rng, n int, skew float64) *zipf {
	cum := make([]float64, n)
	sum := 0.0
	for i := range cum {
		sum += 1 / math.Pow(float64(i+1), skew)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &zipf{r: r, cum: cum, perm: r.perm(n)}
}

func (z *zipf) next() int {
	rank := sort.SearchFloat64s(z.cum, z.r.float())
	if rank >= len(z.perm) {
		rank = len(z.perm) - 1
	}
	return z.perm[rank]
}

// uniformIDs draws n object IDs uniformly from the catalog.
func uniformIDs(objs []tertiary.Object, n int, seed int64) []string {
	r := newRNG(seed, 1)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = objs[r.intn(len(objs))].ID
	}
	return ids
}

// op is one open-loop operation: a read, or a staged write when write
// is set.
type op struct {
	id    string
	at    float64
	write bool
}

// openStream builds an open-loop stream over a store laid out as
// tapes × perTape objects in catalog order (objs[t*perTape+o] is
// object o of cartridge t): Poisson arrivals at ratePerHour,
// Zipf(skew) object popularity, and a mount-locality knob — with
// probability locality an operation re-targets the previous
// operation's cartridge, keeping its Zipf-drawn object ordinal. A
// fraction writeFrac of the operations are writes.
func openStream(seed int64, n int, ratePerHour float64, ids []string, perTape int, skew, locality, writeFrac float64) []op {
	arr := newRNG(seed, 2)
	pop := newZipf(newRNG(seed, 3), len(ids), skew)
	coin := newRNG(seed, 4)
	kind := newRNG(seed, 5)
	ops := make([]op, n)
	at, prevTape := 0.0, -1
	for i := range ops {
		at += arr.exp(ratePerHour / 3600)
		flat := pop.next()
		tape, obj := flat/perTape, flat%perTape
		if prevTape >= 0 && coin.float() < locality {
			tape = prevTape
		}
		prevTape = tape
		ops[i] = op{id: ids[tape*perTape+obj], at: at, write: kind.float() < writeFrac}
	}
	return ops
}

// reads returns the stream's reads as library requests.
func reads(ops []op) []tertiary.Request {
	out := make([]tertiary.Request, 0, len(ops))
	for _, o := range ops {
		if !o.write {
			out = append(out, tertiary.Request{ObjectID: o.id, Arrival: o.at})
		}
	}
	return out
}
