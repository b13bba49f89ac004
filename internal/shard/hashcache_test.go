package shard

// Key-hash cache tests: a staged leaf is a storage.Relation whose ColView
// caches key-hash columns, so repeated scatters at one epoch, and later
// epochs that leave the leaf unchanged, probe joins with the column the
// first scatter built instead of rehashing the staged rows.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/algebra"
)

// hashWorker stages one epoch of a two-column relation (key, val) on a fresh
// single-shard worker and returns it with the staged row count.
func hashWorker(t *testing.T, epoch int64, n int) (*Worker, int) {
	t.Helper()
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	s := Slice{}
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, algebra.Tuple{algebra.NewInt(int64(i % 7)), algebra.NewInt(int64(i))})
		s.Idx = append(s.Idx, int32(i))
	}
	if err := w.Stage(&StageReq{Epoch: epoch, From: -1, Base: true,
		Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	return w, n
}

// joinReq builds a filter → project → join pipeline whose probe key passes
// through both a filter (row subset) and a projection (column remap), so the
// leaf's cache is only usable if the join maps its key back to leaf columns.
func joinReq(epoch int64) *ScatterReq {
	build := []algebra.Tuple{
		{algebra.NewInt(1), algebra.NewString("a")},
		{algebra.NewInt(3), algebra.NewString("b")},
		{algebra.NewInt(5), algebra.NewString("c")},
	}
	return &ScatterReq{Epoch: epoch, Leaf: LeafRef{Rel: "t"}, Stages: []Stage{
		{Kind: StageFilter, Pred: []algebra.BoundCmp{
			{Op: algebra.LT, LIdx: 1, RIdx: -1, RVal: algebra.NewInt(150)},
		}},
		{Kind: StageProject, Cols: []int{1, 0}}, // key moves to column 1
		{Kind: StageJoin, BCols: []int{0}, PCols: []int{1}, Build: build},
	}}
}

// leafCache returns the key-column sets cached on the staged leaf rel at
// epoch, and the hash column cached for cols (nil when none is).
func leafCache(t *testing.T, w *Worker, epoch int64, rel string, cols []int) ([][]int, []uint64) {
	t.Helper()
	w.mu.Lock()
	st := w.states[epoch]
	w.mu.Unlock()
	if st == nil || st.rels[rel] == nil {
		t.Fatalf("leaf %s not staged at epoch %d", rel, epoch)
	}
	sets, hashes := st.rels[rel].rel.ColView().CachedKeys()
	for k := range sets {
		if slices.Equal(sets[k], cols) {
			return sets, hashes[k]
		}
	}
	return sets, nil
}

// sameColumn reports whether two hash columns are one slice, not merely
// equal values.
func sameColumn(a, b []uint64) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// samePartial fails the test unless two partials carry identical rows and
// leaf ordinals.
func samePartial(t *testing.T, label string, want, got *Partial) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for r, tu := range want.Rows {
		if !tu.Equal(got.Rows[r]) || want.Ord[r] != got.Ord[r] {
			t.Fatalf("%s: row %d is %v/%d, want %v/%d", label, r, got.Rows[r], got.Ord[r], tu, want.Ord[r])
		}
	}
}

// TestScatterReusesCachedHashes: the first join over a staged leaf caches
// one hash column for the leaf-mapped key, element-wise equal to HashCols,
// and every later scatter at that epoch probes with that same column while
// answers stay identical.
func TestScatterReusesCachedHashes(t *testing.T) {
	w, _ := hashWorker(t, 1, 200)
	req := joinReq(1)
	if sets, _ := leafCache(t, w, 1, "t", []int{0}); len(sets) != 0 {
		t.Fatalf("cache holds %v before any scatter", sets)
	}

	first, err := w.Scatter(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) == 0 {
		t.Fatal("join produced no rows; test is vacuous")
	}
	sets, cold := leafCache(t, w, 1, "t", []int{0})
	if cold == nil || len(sets) != 1 {
		t.Fatalf("cold scatter cached key sets %v; want exactly [[0]]", sets)
	}
	w.mu.Lock()
	rows := w.states[1].rels["t"].rel.Rows()
	w.mu.Unlock()
	for i, row := range rows {
		if cold[i] != row.HashCols([]int{0}) {
			t.Fatalf("cached hash %d is %#x, want %#x", i, cold[i], row.HashCols([]int{0}))
		}
	}

	for i := 0; i < 5; i++ {
		got, err := w.Scatter(req)
		if err != nil {
			t.Fatal(err)
		}
		samePartial(t, "warm scatter", first, got)
	}
	sets, warm := leafCache(t, w, 1, "t", []int{0})
	if !sameColumn(cold, warm) || len(sets) != 1 {
		t.Fatalf("warm scatters rebuilt the cache: key sets %v, same column %v", sets, sameColumn(cold, warm))
	}
}

// TestScatterHashCachePerKeyAndEpoch: a different probe-key column set
// caches a second column; an epoch that leaves the leaf unchanged shares the
// leaf and with it both cached columns; an epoch that restages the leaf
// starts cold and caches once.
func TestScatterHashCachePerKeyAndEpoch(t *testing.T) {
	w, n := hashWorker(t, 1, 100)
	if _, err := w.Scatter(joinReq(1)); err != nil {
		t.Fatal(err)
	}
	other := &ScatterReq{Epoch: 1, Leaf: LeafRef{Rel: "t"}, Stages: []Stage{
		{Kind: StageJoin, BCols: []int{0}, PCols: []int{1},
			Build: []algebra.Tuple{{algebra.NewInt(17)}}},
	}}
	for i := 0; i < 3; i++ {
		if _, err := w.Scatter(other); err != nil {
			t.Fatal(err)
		}
	}
	sets, h0 := leafCache(t, w, 1, "t", []int{0})
	_, h1 := leafCache(t, w, 1, "t", []int{1})
	if len(sets) != 2 || h0 == nil || h1 == nil {
		t.Fatalf("after a second key set: cached %v, want [[0] [1]]", sets)
	}

	// Epoch 2 changes only another relation: "t" is the same leaf.
	u := Slice{Rows: []algebra.Tuple{{algebra.NewInt(1)}}, Idx: []int32{0}}
	if err := w.Stage(&StageReq{Epoch: 2, From: 1,
		Rels: map[string]Slice{"u": u}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Scatter(joinReq(2)); err != nil {
		t.Fatal(err)
	}
	sets, g0 := leafCache(t, w, 2, "t", []int{0})
	_, g1 := leafCache(t, w, 2, "t", []int{1})
	if len(sets) != 2 || !sameColumn(h0, g0) || !sameColumn(h1, g1) {
		t.Fatalf("unchanged leaf at epoch 2 did not carry its cache: sets %v", sets)
	}

	// Epoch 3 restages "t": a fresh leaf, cold until its first join.
	s := Slice{}
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, algebra.Tuple{algebra.NewInt(int64(i % 5)), algebra.NewInt(int64(i))})
		s.Idx = append(s.Idx, int32(i))
	}
	if err := w.Stage(&StageReq{Epoch: 3, From: 2,
		Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	if sets, _ := leafCache(t, w, 3, "t", nil); len(sets) != 0 {
		t.Fatalf("restaged leaf starts with cached sets %v", sets)
	}
	var first []uint64
	for i := 0; i < 3; i++ {
		if _, err := w.Scatter(joinReq(3)); err != nil {
			t.Fatal(err)
		}
		sets, h := leafCache(t, w, 3, "t", []int{0})
		if len(sets) != 1 || h == nil || (first != nil && !sameColumn(first, h)) {
			t.Fatalf("restaged leaf scatter %d: cached %v, reused %v", i, sets, first == nil || sameColumn(first, h))
		}
		first = h
	}
}

// TestScatterSecondJoinHashesComposites: a join's outputs are composite rows
// with no single leaf row behind their columns, so a second join hashes the
// first join's output relation. Its answer matches a nested-loop evaluation
// and the leaf cache holds only the first join's key set.
func TestScatterSecondJoinHashesComposites(t *testing.T) {
	w, n := hashWorker(t, 1, 50)
	build := []algebra.Tuple{{algebra.NewInt(2)}, {algebra.NewInt(4)}}
	req := &ScatterReq{Epoch: 1, Leaf: LeafRef{Rel: "t"}, Stages: []Stage{
		{Kind: StageJoin, BCols: []int{0}, PCols: []int{0}, Build: build},
		{Kind: StageJoin, BCols: []int{0}, PCols: []int{1}, Build: build},
	}}
	p, err := w.Scatter(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) == 0 {
		t.Fatal("pipeline produced no rows; test is vacuous")
	}
	// BuildIsLeft is false, so the probe row comes first: a second-join row
	// is (leaf ++ build1) ++ build2.
	want := &Partial{}
	for i := 0; i < n; i++ {
		leafRow := algebra.Tuple{algebra.NewInt(int64(i % 7)), algebra.NewInt(int64(i))}
		for _, b1 := range build {
			if !b1[0].Equal(leafRow[0]) {
				continue
			}
			mid := append(slices.Clone(leafRow), b1...)
			for _, b2 := range build {
				if b2[0].Equal(mid[1]) {
					want.Rows = append(want.Rows, append(slices.Clone(mid), b2...))
					want.Ord = append(want.Ord, int32(i))
				}
			}
		}
	}
	samePartial(t, "two joins", want, p)
	if sets, _ := leafCache(t, w, 1, "t", nil); len(sets) != 1 || !slices.Equal(sets[0], []int{0}) {
		t.Fatalf("leaf cache holds %v, want only the first join's [[0]]", sets)
	}
}

// TestConcurrentScattersShareLeafCache: cold scatters from several
// goroutines, racing a writer that stages epochs sharing the leaf, all give
// the same answer, and the leaf ends up with one cached column that every
// later epoch shares.
func TestConcurrentScattersShareLeafCache(t *testing.T) {
	w, _ := hashWorker(t, 1, 300)
	control, _ := hashWorker(t, 1, 300)
	want, err := control.Scatter(joinReq(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := w.Scatter(joinReq(1))
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Rows) != len(want.Rows) {
					t.Errorf("concurrent scatter: %d rows, want %d", len(got.Rows), len(want.Rows))
					return
				}
				for r, tu := range want.Rows {
					if !tu.Equal(got.Rows[r]) || want.Ord[r] != got.Ord[r] {
						t.Errorf("concurrent scatter: row %d differs", r)
						return
					}
				}
			}
		}()
	}
	for e := int64(2); e <= 4; e++ {
		u := Slice{Rows: []algebra.Tuple{{algebra.NewInt(e)}}, Idx: []int32{0}}
		if err := w.Stage(&StageReq{Epoch: e, From: e - 1,
			Rels: map[string]Slice{"u": u}, Mats: map[int32]Slice{}}); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	sets, h1 := leafCache(t, w, 1, "t", []int{0})
	_, h4 := leafCache(t, w, 4, "t", []int{0})
	if len(sets) != 1 || !sameColumn(h1, h4) {
		t.Fatalf("leaf cache after concurrent scatters: sets %v, shared with epoch 4 %v", sets, sameColumn(h1, h4))
	}
}
