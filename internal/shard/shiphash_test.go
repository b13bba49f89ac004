package shard

// Shipped-hash tests: the coordinator's already-built key-hash columns ride
// inside every Slice (SliceOf gathers them from the relation's ColView
// cache), and staging seeds the leaf's ColView with them — so on the hot
// install path a worker builds no hash column the coordinator already has.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// TestSliceOfShipsCachedHashes: after the coordinator warms a relation's
// ColView hash cache (as its own joins and aggregations do), SliceOf gathers
// the cached column down to each shard's slice, elementwise equal to what the
// worker would have built.
func TestSliceOfShipsCachedHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rel := randRelation(rng, 200)
	cols := []int{0}
	rel.ColView().KeyHashes(cols, storage.Par{})

	a := Assignment{Partitions: 8, Shards: 3}.Norm()
	total := 0
	for _, rg := range a.Ranges() {
		s := SliceOf(rel, a, rg[0], rg[1])
		total += len(s.Rows)
		if len(s.HashCols) == 0 {
			t.Fatalf("range %v: no hash columns shipped despite warm coordinator cache", rg)
		}
		found := false
		for k, hc := range s.HashCols {
			if !slices.Equal(hc, cols) {
				continue
			}
			found = true
			if len(s.Hashes[k]) != len(s.Rows) {
				t.Fatalf("range %v: shipped hash column has %d entries for %d rows", rg, len(s.Hashes[k]), len(s.Rows))
			}
			for i, row := range s.Rows {
				if want := row.HashCols(cols); s.Hashes[k][i] != want {
					t.Fatalf("range %v row %d: shipped hash %#x, want %#x", rg, i, s.Hashes[k][i], want)
				}
			}
		}
		if !found {
			t.Fatalf("range %v: key set %v not among shipped hash columns %v", rg, cols, s.HashCols)
		}
	}
	if total != rel.Len() {
		t.Fatalf("slices cover %d rows, relation has %d", total, rel.Len())
	}
}

// shippedSlice builds the hashWorker relation image with the key-hash column
// for cols pre-attached, as a coordinator with a warm cache would ship it.
func shippedSlice(n int, cols []int) Slice {
	s := Slice{}
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, algebra.Tuple{algebra.NewInt(int64(i % 7)), algebra.NewInt(int64(i))})
		s.Idx = append(s.Idx, int32(i))
	}
	h := make([]uint64, n)
	for i, row := range s.Rows {
		h[i] = row.HashCols(cols)
	}
	s.HashCols = append(s.HashCols, cols)
	s.Hashes = append(s.Hashes, h)
	return s
}

// TestScatterAdoptsShippedHashes: staging a slice that carries the probe
// key's hash column installs that very column on the leaf, cold and warm
// scatters probe with it and build no other, and the answers match a worker
// that had to build.
func TestScatterAdoptsShippedHashes(t *testing.T) {
	const n = 200
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	// joinReq filters then projects {1,0}, so its probe column 1 maps back to
	// leaf column 0 — the shipped set.
	shipped := shippedSlice(n, []int{0})
	if err := w.Stage(&StageReq{Epoch: 1, From: -1, Base: true,
		Rels: map[string]Slice{"t": shipped}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	if _, h := leafCache(t, w, 1, "t", []int{0}); !sameColumn(h, shipped.Hashes[0]) {
		t.Fatal("staging did not adopt the shipped hash column")
	}

	control, _ := hashWorker(t, 1, n)
	want, err := control.Scatter(joinReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("join produced no rows; test is vacuous")
	}
	for i := 0; i < 5; i++ {
		got, err := w.Scatter(joinReq(1))
		if err != nil {
			t.Fatal(err)
		}
		samePartial(t, "shipped-hash scatter", want, got)
	}
	if sets, h := leafCache(t, w, 1, "t", []int{0}); len(sets) != 1 || !sameColumn(h, shipped.Hashes[0]) {
		t.Fatalf("scatters replaced or added to the shipped column: cached %v", sets)
	}
}

// TestScatterShippedHashMismatchFallsBack: a shipped column whose length does
// not match the rows (reachable only from a malformed wire peer) is not
// installed — the first join builds the column itself and answers stay
// correct.
func TestScatterShippedHashMismatchFallsBack(t *testing.T) {
	const n = 100
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	s := shippedSlice(n, []int{0})
	s.Hashes[0] = s.Hashes[0][:n-1] // corrupt: one short
	if err := w.Stage(&StageReq{Epoch: 1, From: -1, Base: true,
		Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	if sets, _ := leafCache(t, w, 1, "t", nil); len(sets) != 0 {
		t.Fatalf("malformed shipped column installed: cached %v", sets)
	}

	control, _ := hashWorker(t, 1, n)
	want, err := control.Scatter(joinReq(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Scatter(joinReq(1))
	if err != nil {
		t.Fatal(err)
	}
	samePartial(t, "fallback scatter", want, got)
	if _, h := leafCache(t, w, 1, "t", []int{0}); len(h) != n {
		t.Fatalf("fallback cached a %d-entry column, want %d", len(h), n)
	}
}

// TestScatterJoinConfirmsKeysOnCollision: every leaf row ships the hash of
// build key 1, so each probe row lands in key 1's bucket whatever its own
// key. Only the join's key comparison keeps the answer equal to a worker
// probing with true hashes.
func TestScatterJoinConfirmsKeysOnCollision(t *testing.T) {
	const n = 70
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	build := []algebra.Tuple{
		{algebra.NewInt(1), algebra.NewString("a")},
		{algebra.NewInt(1), algebra.NewString("b")},
	}
	s := shippedSlice(n, []int{0})
	for i := range s.Hashes[0] {
		s.Hashes[0][i] = build[0].HashCols([]int{0})
	}
	if err := w.Stage(&StageReq{Epoch: 1, From: -1, Base: true,
		Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	req := &ScatterReq{Epoch: 1, Leaf: LeafRef{Rel: "t"}, Stages: []Stage{
		{Kind: StageJoin, BuildIsLeft: true, BCols: []int{0}, PCols: []int{0}, Build: build},
	}}
	control, _ := hashWorker(t, 1, n)
	want, err := control.Scatter(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 || len(want.Rows) >= 2*n {
		t.Fatalf("control join has %d rows; test is vacuous", len(want.Rows))
	}
	got, err := w.Scatter(req)
	if err != nil {
		t.Fatal(err)
	}
	samePartial(t, "colliding hashes", want, got)
}
