package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/greedy"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

const (
	// updatePct is the share of each relation one cycle inserts (and,
	// once the window is full, deletes).
	updatePct = 2.0
	// setupReps is how often a run builds its system; setup_s is the
	// median and the last build is the one measured.
	setupReps = 5
)

// system is one built workload: the optimized plan, its runtime, and the
// update stream that feeds it.
type system struct {
	cat  *catalog.Catalog
	plan *core.MaintenancePlan
	rt   *core.Runtime
	win  *window
}

// generate builds the seed's database. It is never timed.
func generate(cfg config) (*catalog.Catalog, *storage.Database) {
	cat := tpcd.NewCatalog(cfg.sf, true)
	return cat, tpcd.Generate(cat, cfg.sf, cfg.seed)
}

// repeatSetup builds the workload reps times from freshly generated
// data and keeps the last build. Each build is timed from NewSystem through
// its warm-up cycles; data generation and discard (which releases an
// earlier build) are not.
func repeatSetup[T any](cfg config, rep *report, reps int, build func(cat *catalog.Catalog, db *storage.Database, sp *openSpan) T, discard func(T)) T {
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		cat, db := generate(cfg)
		runtime.GC() // an earlier build's garbage must not be collected inside this one
		sp := cfg.tr.begin("setup", fmt.Sprintf("setup-%d", i), nil)
		t0 := time.Now()
		last = build(cat, db, sp)
		rep.setups = append(rep.setups, time.Since(t0))
		sp.end()
	}
	return last
}

// optimize registers views and runs Greedy (or the NoGreedy baseline) for
// the stream's update model, recording the optimizer's layer metrics.
func optimize(cfg config, rep *report, cat *catalog.Catalog, views []tpcd.NamedView, useGreedy bool, parent *openSpan) *core.MaintenancePlan {
	sys := core.NewSystem(cat, core.Options{})
	for _, v := range views {
		if _, err := sys.AddView(v.Name, v.Def); err != nil {
			panic(fmt.Sprintf("perfbench: built-in view %s: %v", v.Name, err))
		}
	}
	u := diff.UniformPercent(cat, tpcd.UpdatedRelations(), updatePct)
	if !useGreedy {
		return sys.OptimizeNoGreedy(u)
	}
	sp := cfg.tr.begin("optimizer.greedy", parent.traceID(), parent)
	plan := sys.OptimizeGreedy(u, greedy.DefaultConfig())
	sp.end()
	rep.set("greedy.benefit_calls", float64(plan.Greedy.BenefitCalls))
	rep.set("greedy.picks", float64(len(plan.Greedy.Chosen)))
	rep.set("diff.plan_cost_s", plan.TotalCost)
	return plan
}

// newSystem optimizes views over cat and materializes the plan over db in
// an in-memory runtime.
func newSystem(cfg config, rep *report, cat *catalog.Catalog, db *storage.Database, views []tpcd.NamedView, useGreedy bool, parent *openSpan) *system {
	plan := optimize(cfg, rep, cat, views, useGreedy, parent)
	sp := cfg.tr.begin("exec.materialize", parent.traceID(), parent)
	rt := plan.NewRuntime(db)
	sp.end()
	return &system{cat: cat, plan: plan, rt: rt,
		win: newWindow(cat, db, tpcd.UpdatedRelations(), updatePct, cfg.seed)}
}

// viewRows is the total row count of the maintained views; read it only
// from the goroutine that refreshes.
func (s *system) viewRows() int {
	n := 0
	for _, vp := range s.plan.Views {
		n += s.rt.ViewRows(vp.View).Len()
	}
	return n
}

// traceID returns the span's trace identifier ("" for a nil span).
func (o *openSpan) traceID() string {
	if o == nil {
		return ""
	}
	return o.sp.Trace
}

// spanMedian is the median duration of the spans named name, in ms.
func spanMedian(cfg config, name string) float64 {
	return median(cfg.tr.durations(name))
}

// predictedGain records NoGreedy's plan cost over Greedy's for the same
// views and update model: the gain the cost model predicts.
func predictedGain(cfg config, rep *report, views func(*catalog.Catalog) []tpcd.NamedView, greedyCost float64) {
	cat := tpcd.NewCatalog(cfg.sf, true)
	ng := optimize(cfg, &report{}, cat, views(cat), false, nil)
	rep.set("greedy.predicted_gain", ng.TotalCost/greedyCost)
}
