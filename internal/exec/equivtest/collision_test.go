package equivtest

// Hash-collision tests: all-zero key-hash columns installed on the inputs
// (ColView.InstallKeyHashes) put every row in one hash bucket, so only the
// join's key comparison (EqualOn) and the aggregation's group-key check keep
// the engine equal to the reference evaluator. The dedup check hashes
// through PartView, which has no such injection point.

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/storage"
)

// zeroKeyHashes installs an all-zero hash column for cols on rel and checks
// that the engine's cache now serves it.
func zeroKeyHashes(t *testing.T, rel *storage.Relation, cols []int) {
	t.Helper()
	rel.ColView().InstallKeyHashes(cols, make([]uint64, rel.Len()))
	for _, h := range rel.ColView().KeyHashes(cols, storage.Par{}) {
		if h != 0 {
			t.Fatal("zero key-hash column not installed")
		}
	}
}

func TestHashJoinCollisionsConfirmKeys(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(3100 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		t1 := RandTable(rng, cat, db, "r1", 2+rng.Intn(2), 48+rng.Intn(100), true)
		t2 := RandTable(rng, cat, db, "r2", 2+rng.Intn(2), 48+rng.Intn(100), true)
		zeroKeyHashes(t, db.MustRelation("r1"), []int{0})
		zeroKeyHashes(t, db.MustRelation("r2"), []int{0})
		node := algebra.NewJoin(algebra.Pred{Conjuncts: []algebra.Cmp{algebra.Eq(t1.QCol(0), t2.QCol(0))}},
			algebra.NewScan(cat, "r1"), algebra.NewScan(cat, "r2"))
		checkNode(t, trial, cat, db, node, false)
	}
}

func TestAggregateCollisionsConfirmGroupKeys(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(3300 + trial)))
		cat, db := catalog.New(), storage.NewDatabase()
		tb := RandTable(rng, cat, db, "r1", 3, 64+rng.Intn(150), false)
		g := rng.Intn(len(tb.Cols))
		zeroKeyHashes(t, db.MustRelation("r1"), []int{g})
		node := algebra.NewAggregate([]algebra.ColRef{algebra.C(tb.QCol(g))},
			[]algebra.AggSpec{{Func: algebra.Count}}, algebra.NewScan(cat, "r1"))
		checkNode(t, trial, cat, db, node, true)
	}
}
