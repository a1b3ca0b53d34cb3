package detrand

import (
	"math"
	"math/rand"
	"testing"
)

// The whole point of the package: a rand.Rand over a counting Source
// emits the exact same Float64/Intn/Int63 stream as one over a bare
// rand.NewSource. If this ever breaks (for instance because Source
// starts implementing Source64, switching rand.Rand onto the Uint64
// shortcut), every committed golden in the repo would shift.
func TestStreamIdenticalToBareSource(t *testing.T) {
	for _, seed := range []int64{1, 2, 7919, -3} {
		bare := rand.New(rand.NewSource(seed))
		counted := rand.New(NewSource(seed))
		for i := 0; i < 2000; i++ {
			switch i % 3 {
			case 0:
				if a, b := bare.Float64(), counted.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, a, b)
				}
			case 1:
				if a, b := bare.Intn(32), counted.Intn(32); a != b {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, a, b)
				}
			case 2:
				if a, b := bare.Int63(), counted.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %v != %v", seed, i, a, b)
				}
			}
		}
	}
}

// Source must not satisfy rand.Source64: that is what keeps rand.Rand
// off the Uint64 fast path and the stream equal to the bare source.
func TestNotSource64(t *testing.T) {
	var s interface{} = NewSource(1)
	if _, ok := s.(rand.Source64); ok {
		t.Fatal("detrand.Source implements rand.Source64; rand.Rand would change its draw pattern")
	}
}

func TestRestoreResumesMidStream(t *testing.T) {
	const seed, prefix = int64(42), 137
	ref := rand.New(NewSource(seed))
	var want []float64
	for i := 0; i < prefix+50; i++ {
		want = append(want, ref.Float64())
	}

	src := NewSource(seed)
	r := rand.New(src)
	for i := 0; i < prefix; i++ {
		r.Float64()
	}
	if src.Draws() != prefix {
		t.Fatalf("draws = %d, want %d", src.Draws(), prefix)
	}

	// Restore a *fresh* source to the captured position, as a resumed
	// run would, and check the continuation matches.
	resumed := NewSource(0)
	resumed.Restore(seed, src.Draws())
	if resumed.Draws() != prefix || resumed.Seed0() != seed {
		t.Fatalf("restored draws/seed = %d/%d", resumed.Draws(), resumed.Seed0())
	}
	rr := rand.New(resumed)
	for i := prefix; i < prefix+50; i++ {
		if got := rr.Float64(); got != want[i] {
			t.Fatalf("draw %d after restore: %v != %v", i, got, want[i])
		}
	}
}

func TestSeedResetsCount(t *testing.T) {
	s := NewSource(5)
	r := rand.New(s)
	r.Float64()
	r.Float64()
	if s.Draws() != 2 {
		t.Fatalf("draws = %d, want 2", s.Draws())
	}
	s.Seed(9)
	if s.Draws() != 0 || s.Seed0() != 9 {
		t.Fatalf("after Seed: draws=%d seed=%d", s.Draws(), s.Seed0())
	}
}

// matchSeed re-seeds ref and src with seed and fails t at the first of
// n Int63 draws on which they differ.
func matchSeed(t testing.TB, ref rand.Source, src *Source, seed int64, n int) {
	t.Helper()
	ref.Seed(seed)
	src.Seed(seed)
	for i := 0; i < n; i++ {
		if a, b := ref.Int63(), src.Int63(); a != b {
			t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, b, a)
		}
	}
}

// The owned generator is math/rand's, seeded without division and in
// three lanes: its Int63 stream must equal rand.NewSource's for every
// seed, including the ones the seed reduction treats specially.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	edges := []int64{0, 1, -1, m, -m, 2 * m, m - 1, m + 1, -m - 1,
		math.MinInt64, math.MaxInt64, 89482311, -89482311}
	seeds, draws := 100_000, 1000
	if testing.Short() {
		seeds = 2000
	}
	ref, src := rand.NewSource(0), NewSource(0)
	for _, seed := range edges {
		matchSeed(t, ref, src, seed, draws)
	}
	pick := rand.New(rand.NewSource(20250101))
	for i := 0; i < seeds; i++ {
		matchSeed(t, ref, src, int64(pick.Uint64()), draws)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, math.MinInt64, math.MaxInt64, 89482311} {
		f.Add(seed)
	}
	ref, src := rand.NewSource(0), NewSource(0)
	f.Fuzz(func(t *testing.T, seed int64) {
		matchSeed(t, ref, src, seed, 1300)
	})
}

// Restore steps the inlined register; at every position, including the
// ones where the feed and tap indices wrap, it must land where a fresh
// source drawn that far is.
func TestRestoreEqualsDrawing(t *testing.T) {
	const seed = int64(-77)
	for _, n := range []uint64{0, 1, 606, 607, 608, 100_000} {
		fresh := NewSource(seed)
		for i := uint64(0); i < n; i++ {
			fresh.Int63()
		}
		restored := NewSource(3)
		restored.Int63()
		restored.Restore(seed, n)
		if restored.Draws() != n || restored.Seed0() != seed {
			t.Fatalf("Restore(%d, %d): draws/seed = %d/%d", seed, n, restored.Draws(), restored.Seed0())
		}
		if *restored != *fresh {
			t.Fatalf("Restore(%d, %d) state differs from a fresh source drawn %d times", seed, n, n)
		}
	}
}

// Sinks keep the compiler from eliding the constructions measured below.
var (
	sourceSink     *Source
	randSourceSink rand.Source
)

// Building a member seeds several sources; each is one allocation, the
// Source itself with its state inline.
func TestNewSourceAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { sourceSink = NewSource(42) }); got != 1 {
		t.Fatalf("NewSource allocates %v times, want 1", got)
	}
}

func BenchmarkNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sourceSink = NewSource(int64(i))
	}
}

// BenchmarkMathRandNewSource is the reference NewSource replaces.
func BenchmarkMathRandNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSourceSink = rand.NewSource(int64(i))
	}
}
