package ring

import (
	"testing"
	"testing/quick"
)

func TestPushAndOrder(t *testing.T) {
	b := New[int](3)
	if b.Cap() != 3 || b.Len() != 0 || b.Full() {
		t.Fatalf("fresh buffer: cap=%d len=%d full=%v", b.Cap(), b.Len(), b.Full())
	}
	for i := 1; i <= 3; i++ {
		if _, full := b.Push(i); full {
			t.Fatalf("push %d reported eviction on non-full buffer", i)
		}
	}
	if !b.Full() {
		t.Fatal("buffer should be full after 3 pushes")
	}
	ev, full := b.Push(4)
	if !full || ev != 1 {
		t.Fatalf("push to full buffer: evicted=%v wasFull=%v, want 1,true", ev, full)
	}
	want := []int{2, 3, 4}
	got := b.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
}

func TestFilled(t *testing.T) {
	b := Filled(10, 0)
	if !b.Full() || b.Len() != 10 {
		t.Fatalf("Filled: len=%d full=%v", b.Len(), b.Full())
	}
	b.Do(func(v int) {
		if v != 0 {
			t.Fatalf("Filled slot = %d, want 0", v)
		}
	})
	b.Push(1)
	if v := b.At(b.Len() - 1); v != 1 {
		t.Fatalf("newest after push = %d, want 1", v)
	}
	if v := b.At(0); v != 0 {
		t.Fatalf("oldest after push = %d, want 0", v)
	}
}

func TestReset(t *testing.T) {
	b := New[int](4)
	b.Push(1)
	b.Push(2)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Push(9)
	if v := b.At(0); v != 9 {
		t.Fatalf("oldest after reuse = %d, want 9", v)
	}
}

func TestAtPanics(t *testing.T) {
	b := New[int](2)
	b.Push(1)
	for _, idx := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", idx)
				}
			}()
			b.At(idx)
		}()
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New[int](c)
		}()
	}
}

// Property: after pushing any sequence into a buffer of capacity c, the
// contents equal the last min(len(seq), c) elements of the sequence in
// order, and Len never exceeds Cap.
func TestFIFOProperty(t *testing.T) {
	prop := func(seq []int16, capHint uint8) bool {
		c := int(capHint%16) + 1
		b := New[int16](c)
		for _, v := range seq {
			b.Push(v)
			if b.Len() > b.Cap() {
				return false
			}
		}
		start := 0
		if len(seq) > c {
			start = len(seq) - c
		}
		want := seq[start:]
		got := b.Snapshot()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: eviction reporting matches fullness, and the evicted element
// is always the previous oldest.
func TestEvictionProperty(t *testing.T) {
	prop := func(seq []int32, capHint uint8) bool {
		c := int(capHint%8) + 1
		b := New[int32](c)
		for i, v := range seq {
			wasFull := b.Full()
			var wantEvict int32
			if wasFull {
				wantEvict = b.At(0)
			}
			ev, full := b.Push(v)
			if full != wasFull {
				return false
			}
			if wasFull && ev != wantEvict {
				return false
			}
			wantLen := i + 1
			if wantLen > c {
				wantLen = c
			}
			if b.Len() != wantLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFill(t *testing.T) {
	b := New[int](5)
	b.Push(1)
	b.Push(2)
	b.Push(3)
	b.Push(4)
	b.Push(5)
	b.Push(6) // rotate the head so Fill must also rewind it
	b.Fill(0)
	if !b.Full() || b.Len() != 5 {
		t.Fatalf("Fill left len=%d full=%v", b.Len(), b.Full())
	}
	for i := 0; i < b.Len(); i++ {
		if b.At(i) != 0 {
			t.Fatalf("At(%d) = %d after Fill(0)", i, b.At(i))
		}
	}
	// Fill must behave exactly like a fresh Filled buffer under
	// subsequent pushes.
	b.Push(9)
	want := Filled(5, 0)
	want.Push(9)
	for i := 0; i < 5; i++ {
		if b.At(i) != want.At(i) {
			t.Fatalf("post-Fill push diverges at %d: %d vs %d", i, b.At(i), want.At(i))
		}
	}
}

func TestFillZeroAlloc(t *testing.T) {
	b := Filled(10, 1)
	if allocs := testing.AllocsPerRun(100, func() { b.Fill(0) }); allocs != 0 {
		t.Fatalf("Fill allocates %v times per call", allocs)
	}
}
