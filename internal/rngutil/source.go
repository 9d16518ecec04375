package rngutil

import "math/rand"

// math/rand's additive lagged Fibonacci generator, as its rngSource
// defines it.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the prime modulus p of the seeding Lehmer generator
	lehmerA  = 48271     // its multiplier A
)

// source is math/rand's rngSource, draw for draw, seeded on demand.
//
// rngSource.Seed normalizes the seed to x in [1, p), runs the Lehmer
// generator x ← A·x mod p for 20 steps, and then for each register word
// i takes three more steps, so that word i is
//
//	v0[i] = cooked[i] ^ (x·A^n)<<40 ^ (x·A^(n+1))<<20 ^ x·A^(n+2),  n = 21+3i,
//
// every power reduced mod p. source computes a word from a table of
// those powers with three multiplications, instead of running the 1841
// serial steps that reach the last one.
//
// rngSource starts with tap 0 and feed rngLen-rngTap = 334, and draw k
// (from 1) decrements both, so it reads tap_k = -k and feed_k = 334-k
// (mod 607), returns out_k = v[feed_k] + v[tap_k] and stores out_k at
// v[feed_k]. Draws 1..273 write indices 333 down to 61 and read taps 606
// down to 334, which no draw has written yet: draw k returns
// v0[334-k] + v0[607-k] from two seeded words. So source stores nothing
// for those draws. Draw 274 is the first to read a written word (its tap
// 333 is draw 1's feed); there source materializes the register, replays
// the 273 writes and from then on steps exactly as rngSource does.
type source struct {
	x     uint64         // the normalized seed
	drawn int            // draws served from seeded words, while vec is nil
	tap   int            // index into vec
	feed  int            // index into vec
	vec   *[rngLen]int64 // the register, nil until draw rngTap+1
}

var (
	// lehmerPow[i][j] is A^(21+3i+j) mod p, the powers word i reads.
	lehmerPow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table, recovered in init.
	cooked [rngLen]int64
)

func init() {
	a := uint64(1)
	for range 21 {
		a = mulModP(a, lehmerA)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			lehmerPow[i][j] = a
			a = mulModP(a, lehmerA)
		}
	}

	// Recover rngCooked from the first 607 draws of seed 1 (x = 1, so
	// cooked[i] = v0[i] ^ the Lehmer part of word i). Draw k's tap is
	// feed_{k-273} (334-(k-273) = 607-k ≡ -k), so for k > 273 the tap
	// holds out_{k-273}; for k ≤ 607 the feed still holds its seeded word.
	// Hence v0[feed_k] = out_k - out_{k-273} for k = 274..607, covering
	// indices 0..60 and 334..606; then v0[334-k] = out_k - v0[607-k] for
	// k = 1..273 covers 61..333, from words the first pass found.
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var v0 [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v0[(rngLen-rngTap-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v0[rngLen-rngTap-k] = out[k] - v0[rngLen-k]
	}
	seed1 := source{x: 1}
	for i := range cooked {
		cooked[i] = v0[i] ^ seed1.lehmerWord(i)
	}
}

// mulModP returns a·b mod p for a, b < p.
func mulModP(a, b uint64) uint64 {
	m := a * b              // < 2^62
	r := m&int32max + m>>31 // ≡ m (mod p), since 2^31 ≡ 1; r < 2p
	if r >= int32max {
		r -= int32max
	}
	return r
}

// lehmerWord is the Lehmer part of seeded word i: v0[i] ^ cooked[i].
func (s *source) lehmerWord(i int) int64 {
	p := &lehmerPow[i]
	return int64(mulModP(s.x, p[0])<<40 ^ mulModP(s.x, p[1])<<20 ^ mulModP(s.x, p[2]))
}

// word is seeded register word i.
func (s *source) word(i int) int64 {
	return cooked[i] ^ s.lehmerWord(i)
}

// Seed resets s to rngSource's state after Seed(seed), with the same
// normalization of seed.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{x: uint64(seed)}
}

// Uint64 returns the next draw.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw's low 63 bits.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// materialize builds the register as rngSource holds it after rngTap
// draws: the seeded words, with draw j's write v[334-j] += v[607-j]
// replayed for j = 1..rngTap, and tap and feed moved rngTap steps down.
func (s *source) materialize() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	for j := 1; j <= rngTap; j++ {
		vec[rngLen-rngTap-j] += vec[rngLen-j]
	}
	s.vec, s.tap, s.feed = vec, rngLen-rngTap, rngLen-2*rngTap
}
