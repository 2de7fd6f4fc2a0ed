package uf

import (
	"math/rand"
	"testing"
)

func TestBasic(t *testing.T) {
	var f Forest32
	a, b, c := f.Make(), f.Make(), f.Make()
	if f.Sets() != 3 || f.Len() != 3 {
		t.Fatalf("Sets=%d Len=%d", f.Sets(), f.Len())
	}
	if f.Same(a, b) {
		t.Fatal("fresh sets should differ")
	}
	f.Union(a, b)
	if !f.Same(a, b) || f.Same(a, c) {
		t.Fatal("union wrong")
	}
	if f.Sets() != 2 {
		t.Fatalf("Sets=%d after one union", f.Sets())
	}
	// Union of already-joined sets must not change the count.
	f.Union(b, a)
	if f.Sets() != 2 {
		t.Fatalf("Sets=%d after redundant union", f.Sets())
	}
}

func TestFindIsCanonical(t *testing.T) {
	var f Forest32
	ids := make([]int32, 100)
	for i := range ids {
		ids[i] = f.Make()
	}
	for i := 1; i < len(ids); i++ {
		f.Union(ids[i-1], ids[i])
	}
	root := f.Find(ids[0])
	for _, id := range ids {
		if f.Find(id) != root {
			t.Fatalf("id %d has root %d, want %d", id, f.Find(id), root)
		}
	}
	if f.Sets() != 1 {
		t.Fatalf("Sets=%d", f.Sets())
	}
}

func TestAgainstNaive(t *testing.T) {
	// Randomised differential test against a brute-force partition.
	rng := rand.New(rand.NewSource(42))
	var f Forest32
	const n = 200
	naive := make([]int, n)
	for i := 0; i < n; i++ {
		f.Make()
		naive[i] = i
	}
	relabel := func(from, to int) {
		for i := range naive {
			if naive[i] == from {
				naive[i] = to
			}
		}
	}
	for step := 0; step < 500; step++ {
		x, y := rng.Intn(n), rng.Intn(n)
		f.Union(int32(x), int32(y))
		relabel(naive[x], naive[y])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if same := f.Same(int32(i), int32(j)); same != (naive[i] == naive[j]) {
				t.Fatalf("Same(%d,%d)=%v, naive=%v", i, j, same, naive[i] == naive[j])
			}
		}
	}
	// Count distinct naive labels and compare with Sets.
	labels := map[int]bool{}
	for _, l := range naive {
		labels[l] = true
	}
	if f.Sets() != len(labels) {
		t.Fatalf("Sets=%d, naive=%d", f.Sets(), len(labels))
	}
}

func TestReset(t *testing.T) {
	var f Forest32
	f.Make()
	f.Make()
	f.Union(0, 1)
	f.Reset()
	if f.Len() != 0 || f.Sets() != 0 {
		t.Fatal("Reset did not clear")
	}
	a := f.Make()
	b := f.Make()
	if f.Same(a, b) {
		t.Fatal("sets joined after Reset")
	}
}

func TestForest32Basics(t *testing.T) {
	var f Forest32
	a, b, c := f.Make(), f.Make(), f.Make()
	if f.Len() != 3 || f.Sets() != 3 {
		t.Fatalf("Len=%d Sets=%d", f.Len(), f.Sets())
	}
	r := f.Union(a, b)
	if !f.Same(a, b) || f.Same(a, c) || f.Sets() != 2 {
		t.Fatal("union wrong")
	}
	if f.Find(a) != r || f.Find(b) != r {
		t.Fatal("find wrong")
	}
	// Union by size: the bigger class's root survives.
	if got := f.Union(c, a); got != r {
		t.Fatalf("size union kept %d, want %d", got, r)
	}
}

func TestForest32Grow(t *testing.T) {
	var f Forest32
	first := f.Grow(5)
	if first != 0 || f.Len() != 5 || f.Sets() != 5 {
		t.Fatalf("Grow: first=%d Len=%d Sets=%d", first, f.Len(), f.Sets())
	}
	f.Make()
	if f.Len() != 6 {
		t.Fatal("Make after Grow")
	}
}
