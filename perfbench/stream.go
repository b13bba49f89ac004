package main

import (
	"repro/internal/catalog"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// windowCycles is W: each cycle deletes exactly the rows inserted W cycles
// earlier. The first W cycles only insert and are run as warm-up.
const windowCycles = 4

// window is the stationary, foreign-key-safe update stream. The paper's
// model (tpcd.LogUniformUpdates) grows every relation by pct/2 % per cycle
// and its random deletes orphan original fact rows, so per-cycle work
// would depend on how long a run lasts. Instead, cycle c takes the
// fresh-key inserts of tpcd.NewUpdateStream — capped per relation at the
// count the initial database gives, so the batch size never changes — and
// deletes the batch inserted W cycles earlier. Inserted rows reference only
// original keys, and only inserted rows are deleted, so no foreign key
// dangles; every cycle's seed is distinct, so inserted primary keys are
// always fresh (the differential engine's §5.3 foreign-key pruning assumes
// they are; see README.md).
type window struct {
	cat   *catalog.Catalog
	rels  []string
	pct   float64
	seed  int64
	quota map[string]int
	ring  [windowCycles][]ingest.Op
	cycle int
}

func newWindow(cat *catalog.Catalog, db *storage.Database, rels []string, pct float64, seed int64) *window {
	w := &window{cat: cat, rels: rels, pct: pct, seed: seed, quota: make(map[string]int)}
	for _, r := range rels {
		w.quota[r] = int(float64(db.MustRelation(r).Len()) * pct / 100)
	}
	return w
}

// next returns the following cycle's ops, inserts first. db must not change
// while next runs; it supplies only the stream's relation sizes.
func (w *window) next(db *storage.Database) []ingest.Op {
	// Distinct per-cycle seeds give disjoint fresh-key ranges; keep the
	// product far from int64 overflow in the stream's key base.
	s := tpcd.NewUpdateStream(w.cat, db, w.rels, w.pct, (w.seed%1_000_000)*100_000+int64(w.cycle)+1)
	taken := make(map[string]int)
	var ins []ingest.Op
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		if !op.Del && taken[op.Rel] < w.quota[op.Rel] {
			taken[op.Rel]++
			ins = append(ins, op)
		}
	}
	slot := w.cycle % windowCycles
	ops := append([]ingest.Op(nil), ins...)
	if w.cycle >= windowCycles {
		for _, op := range w.ring[slot] {
			ops = append(ops, ingest.Op{Rel: op.Rel, Del: true, Tuple: op.Tuple.Clone()})
		}
	}
	w.ring[slot] = ins
	w.cycle++
	return ops
}

// stage logs ops as the database's pending deltas.
func stage(db *storage.Database, ops []ingest.Op) {
	for _, op := range ops {
		if op.Del {
			db.LogDelete(op.Rel, op.Tuple)
		} else {
			db.LogInsert(op.Rel, op.Tuple)
		}
	}
}
