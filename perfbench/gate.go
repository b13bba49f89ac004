package main

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/viewdef"
)

// viewDrift bounds how far the maintained views' mean total row count may
// move from the first quarter of the measured cycles to the last, as a
// share of the overall mean. The window holds it near constant; a trend
// means the per-cycle work is not stationary.
const viewDrift = 0.02

// stationarity records the per-cycle guards: the update rows a cycle
// stages and the view rows it leaves behind.
type stationarity struct {
	deltas, views []int
}

func (s *stationarity) observe(deltaRows, viewRows int) {
	s.deltas = append(s.deltas, deltaRows)
	s.views = append(s.views, viewRows)
}

// check fails the run when either guard drifted, and reports both.
func (s *stationarity) check(rep *report) {
	if len(s.views) == 0 {
		rep.fail("no measured cycles")
		return
	}
	q := max(len(s.views)/4, 1)
	first, last, all := meanInt(s.views[:q]), meanInt(s.views[len(s.views)-q:]), meanInt(s.views)
	if d := last - first; d > viewDrift*all || -d > viewDrift*all {
		rep.fail("view rows drifted: mean %.0f over the first quarter of cycles, %.0f over the last", first, last)
	}
	dsum := 0
	for _, d := range s.deltas {
		if d != s.deltas[0] {
			rep.fail("update rows per cycle changed: %d then %d", s.deltas[0], d)
			break
		}
		dsum += d
	}
	rep.set("exec.delta_rows_per_cycle", float64(dsum)/float64(len(s.deltas)))
	rep.set("exec.view_rows", all)
}

func meanInt(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// maxPins bounds the snapshots a run pins for checking answers: each pinned
// snapshot keeps its relation versions alive until the run ends.
const maxPins = 5

// answer is one served result kept with the snapshot it was computed at.
type answer struct {
	class int
	snap  *storage.Snapshot
	rows  *storage.Relation
}

// answerCheck samples served answers in maxPins bursts spread evenly over
// the run. A burst pins the snapshot of the first answer it can and keeps
// the following answers computed at that snapshot, as many as the mix has
// classes (the mix is sent round-robin, so one of each); verify then
// compares each with a recomputation of its query at the snapshot. offer is called from the one reader goroutine, verify
// after it has stopped.
type answerCheck struct {
	sqls    []string
	stride  int
	pins    int
	burst   *storage.Snapshot // the pinned snapshot of the open burst
	taken   int               // answers the open burst holds
	owed    bool              // a burst is due but no snapshot is pinned yet
	samples []answer
}

func newAnswerCheck(sqls []string, queries int) *answerCheck {
	return &answerCheck{sqls: sqls, stride: max(queries/maxPins, 1)}
}

// offer considers query i's answer; snap is the snapshot it was computed
// at, or nil when that could not be pinned.
func (a *answerCheck) offer(i, class int, snap *storage.Snapshot, res *core.QueryResult) {
	if snap != nil && snap.Epoch() != res.Epoch {
		snap = nil // the answer was computed at a later snapshot
	}
	if i%a.stride == 0 && a.pins < maxPins {
		a.owed = true
	}
	if a.burst != nil && (snap != a.burst || a.taken == len(a.sqls)) {
		a.burst = nil // the epoch moved on, or every class is covered
	}
	if a.burst == nil && a.owed && snap != nil {
		a.burst, a.taken, a.owed = snap, 0, false
		a.pins++
	}
	if a.burst != nil && snap == a.burst {
		a.samples = append(a.samples, answer{class, snap, res.Rows})
		a.taken++
	}
}

// verify recomputes every sampled query at its snapshot, once per
// (query, epoch), and fails the run on any divergence.
func (a *answerCheck) verify(rep *report, cat *catalog.Catalog) {
	cd := dag.New(cat)
	roots := make([]*dag.Equiv, len(a.sqls))
	for i, sql := range a.sqls {
		roots[i] = cd.InsertExpr(viewdef.MustParse(cat, sql))
	}
	type key struct {
		class int
		epoch int64
	}
	want := make(map[key]*storage.Relation)
	for _, s := range a.samples {
		k := key{s.class, s.snap.Epoch()}
		w, ok := want[k]
		if !ok {
			w = exec.NewExecutor(s.snap.Database()).EvalNode(roots[s.class])
			want[k] = w
		}
		if !storage.EqualMultiset(s.rows, w) {
			rep.fail("query %s at epoch %d: %d rows served, %d recomputed",
				classNames[s.class], k.epoch, s.rows.Len(), w.Len())
		}
	}
	if len(a.samples) == 0 {
		rep.fail("no served answer could be sampled")
	}
	a.samples = nil
}

// verifyViews runs Runtime.Verify: every maintained view must equal its
// recomputation from the base relations.
func verifyViews(rep *report, rt *core.Runtime) {
	if err := rt.Verify(); err != nil {
		rep.fail("%v", err)
	}
}
