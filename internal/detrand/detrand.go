// Package detrand is the repo's counting random source: math/rand's
// additive lagged-Fibonacci generator, owned here so a generator's
// position in its stream can be captured and restored.
//
// The checkpoint layer (internal/checkpoint, docs/CHECKPOINT.md) needs
// to snapshot every RNG a run consumes — the workload runner's jitter
// and burst generator, the fault injectors' rate rolls — and resume
// them mid-stream. Every consumer in this repo funnels through Int63
// (Float64, Intn and Int63n all reduce to it for a non-Source64
// source), so counting Int63 calls pins the stream position exactly:
// restoring is re-seeding and stepping that many draws.
//
// Source carries the generator state inline (607 words plus two
// indices) and emits exactly the Int63 stream of rand.NewSource(seed)
// for every seed; TestSourceMatchesMathRand and
// FuzzSourceMatchesMathRand pin that. Seeding produces the same 3×607
// values of the multiplicative congruential generator
// x ← 48271·x mod (2³¹−1) that math/rand's rngSource.Seed does, but
// without division and in three interleaved lanes:
//
//   - math/rand reduces with Schrage's method, which is exact for
//     0 < x < M = 2³¹−1. Because 2³¹ ≡ 1 (mod M), the product t = x·a
//     reduces to (t mod 2³¹) + ⌊t/2³¹⌋ ≡ t (mod M), and one conditional
//     subtraction of M brings it into [0, M). Both give x·a mod M, so
//     both give the same value.
//   - State word i XORs three consecutive values x[21+3i], x[22+3i]
//     and x[23+3i]. Lane j holds x[21+3i+j] and steps by A³ mod M:
//     modular multiplication is associative, so ((x·A mod M)·A mod M)·A
//     mod M equals x·(A³ mod M) mod M and each lane emits the same
//     values as three serial steps. The lanes carry no dependency on
//     one another, so their multiplies overlap instead of forming one
//     1,841-step chain.
//
// Source deliberately does NOT implement rand.Source64. rand.Rand
// only takes the Uint64 shortcut for Source64 sources, and nothing in
// this repo calls Uint64, so hiding the interface keeps the emitted
// Float64/Intn streams bit-identical to a bare rand.NewSource — the
// swap into workload and faults is invisible to every committed
// golden.
package detrand

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// seedA and seedM are the multiplier and modulus of the generator
	// that fills the state on Seed; seedA3 steps it three times at once.
	seedA  = 48271
	seedM  = 1<<31 - 1
	seedA3 = seedA * seedA * seedA % seedM

	// seedZero replaces a seed congruent to 0 mod seedM, which would
	// fix the congruential generator at 0 (math/rand does the same).
	seedZero = 89482311
)

// mulMod returns x·a mod seedM for x, a < seedM, reducing through
// 2³¹ ≡ 1 (mod seedM) instead of dividing.
func mulMod(x, a uint64) uint64 {
	t := x * a
	t = t&seedM + t>>31
	if t >= seedM {
		t -= seedM
	}
	return t
}

// Source is a counting random source. Its zero value is not seeded;
// construct with NewSource. It is not safe for concurrent use, matching
// rand.NewSource.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
	seed      int64
	draws     uint64
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	s.draws++
	return s.step() & rngMask
}

// step advances the lagged-Fibonacci register by one draw.
func (s *Source) step() int64 {
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
	return x
}

// Seed implements rand.Source, resetting the draw count.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= seedM
	if seed < 0 {
		seed += seedM
	}
	if seed == 0 {
		seed = seedZero
	}
	// math/rand discards the first 20 values, then XORs three
	// consecutive ones into each state word.
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = mulMod(x, seedA)
	}
	x0 := mulMod(x, seedA)
	x1 := mulMod(x0, seedA)
	x2 := mulMod(x1, seedA)
	for i := range s.vec {
		s.vec[i] = int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ rngCooked[i]
		x0 = mulMod(x0, seedA3)
		x1 = mulMod(x1, seedA3)
		x2 = mulMod(x2, seedA3)
	}
}

// Seed0 returns the seed the source was created (or last re-seeded)
// with.
func (s *Source) Seed0() int64 { return s.seed }

// Draws returns how many Int63 values have been drawn since seeding.
func (s *Source) Draws() uint64 { return s.draws }

// Restore re-seeds the source and fast-forwards it by draws values,
// leaving it in exactly the state a fresh source reaches after that
// many Int63 calls.
func (s *Source) Restore(seed int64, draws uint64) {
	s.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.step()
	}
	s.draws = draws
}
