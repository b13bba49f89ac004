package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/wal"
)

// classNames names the classes of bench.DefaultServeQueries, in order.
var classNames = []string{"lo_cust", "lo", "ps_supp", "nation_rev", "nation_scan"}

// Fixed work per nominal second of each workload, sized so that at
// --seconds 20 each percentile has at least ten samples beyond it (a p90
// needs 100 cycles, a p99 1000 reads). On a 2-core x86-64 container such a
// run took 30–50 s when the benchmark was added. A slower commit takes
// longer; it does not do less.
const (
	nightlyCyclesPerSec = 30
	dayReportsPerSec    = 100 // the closed-loop report phase after the cycles
	ingestCyclesPerSec  = 10
	// The open-loop legs of the traced run keep both goroutines well below
	// saturation, so latency measures service time and the queueing a
	// refresh causes, not a backlog that grows whenever the host is busy.
	mixedQueryRate = 70 // queries per second
	mixedCadence   = 150 * time.Millisecond
	shardSF        = 0.002 // install copies every partition; see README.md
	shardQueryRate = 70
	shardCadence   = 150 * time.Millisecond
)

// cycleFunc applies one cycle's ops and makes them visible. Spans it
// records go under cyc; tr is nil on untraced cycles.
type cycleFunc func(ops []ingest.Op, tr *tracer, cyc *openSpan) error

// refreshCycle stages ops and runs Runtime.Refresh.
func (s *system) refreshCycle(ops []ingest.Op, tr *tracer, cyc *openSpan) error {
	sp := tr.begin("storage.stage", cyc.traceID(), cyc)
	stage(s.rt.Ex.DB, ops)
	sp.end()
	sp = tr.begin("exec.refresh", cyc.traceID(), cyc)
	s.rt.Refresh()
	sp.end()
	return nil
}

// warmUp runs the window's insert-only cycles, untimed and untraced.
func warmUp(s *system, db func() *storage.Database, do cycleFunc) {
	for c := 0; c < windowCycles; c++ {
		if err := do(s.win.next(db()), nil, nil); err != nil {
			panic(fmt.Sprintf("perfbench: warm-up cycle: %v", err))
		}
	}
}

// cycler measures writer cycles. Odd cycles are traced when tracing is on,
// so the traced and untraced halves give bench.trace_overhead_frac.
type cycler struct {
	cfg     config
	rep     *report
	sys     *system
	do      cycleFunc
	st      stationarity
	mem     memDelta
	keepOps bool
	kept    [][]ingest.Op // the traced cycles' ops, when keepOps is set
	// heapEvery samples heap_peak_mb after every heapEvery-th cycle, outside
	// its timing; 0 samples none.
	heapEvery int
}

// heapSampleEvery is the sampling interval of heap_peak_mb in the measured
// cycles. A forced collection marks the whole heap, so sampling every
// cycle would stretch the run.
const heapSampleEvery = 20

// run times cycle c from due, the time it was meant to start.
func (cy *cycler) run(c int, due time.Time, ops []ingest.Op) {
	var tr *tracer
	if c%2 == 1 {
		tr = cy.cfg.tr
	}
	cyc := tr.begin("cycle", traceName(tr, "cycle", c), nil)
	if tr != nil {
		cy.mem.start()
	}
	err := cy.do(ops, tr, cyc)
	lat := time.Since(due)
	if tr != nil {
		cy.mem.stop()
	}
	cyc.end()
	cy.rep.attempted++
	if err != nil {
		cy.rep.failed++
		cy.rep.fail("cycle %d: %v", c, err)
		return
	}
	if tr != nil {
		cy.rep.traced = append(cy.rep.traced, lat)
		if cy.keepOps {
			cy.kept = append(cy.kept, ops)
		}
	} else {
		cy.rep.cycles = append(cy.rep.cycles, lat)
		cy.rep.rows += int64(len(ops))
		cy.rep.busy += lat
	}
	if cy.heapEvery > 0 && c%cy.heapEvery == cy.heapEvery-1 {
		cy.rep.heap.observe()
	}
	cy.st.observe(len(ops), cy.sys.viewRows())
}

// finish checks stationarity and records the allocation metrics.
func (cy *cycler) finish() {
	cy.st.check(cy.rep)
	if cy.cfg.tr != nil {
		cy.mem.report(cy.rep)
	}
}

// recompute records exec.recompute_ms: every view evaluated from scratch
// at the final state, against the incremental cycle.
func recompute(cfg config, rep *report, s *system) {
	if cfg.tr == nil {
		return
	}
	t0 := time.Now()
	for _, vp := range s.plan.Views {
		s.rt.Ex.EvalNode(vp.View.Root)
	}
	ms := float64(time.Since(t0)) / 1e6
	rep.set("exec.recompute_ms", ms)
	rep.set("exec.incremental_gain", ms/median(rep.cycles))
}

// commonLayers records the layer metrics every workload reports.
func commonLayers(cfg config, rep *report, s *system, views func(*catalog.Catalog) []tpcd.NamedView) {
	if cfg.tr == nil {
		return
	}
	rep.set("greedy.optimize_ms", spanMedian(cfg, "optimizer.greedy"))
	rep.set("exec.materialize_ms", spanMedian(cfg, "exec.materialize"))
	predictedGain(cfg, rep, views, s.plan.TotalCost)
	recompute(cfg, rep, s)
}

// runNightly is the paper's scenario: back-to-back refresh cycles with no
// serving, so merges run in place, then the day phase over the refreshed
// views. Its traced run adds the NoGreedy, serve-mixed and serve-sharded
// legs.
func runNightly(cfg config, rep *report) {
	s := buildNightly(cfg, rep, setupReps, true)
	if cfg.tr != nil {
		runtimeLive(rep)
	}
	cy := nightlyCycles(cfg, rep, s)
	verifyViews(rep, s.rt)
	commonLayers(cfg, rep, s, tpcd.ViewSet10)
	dayPhase(cfg, rep, s)
	if cfg.tr != nil {
		measuredGain(cfg, cy)
		mixedLeg(cfg, rep)
		shardedLeg(cfg, rep)
	}
}

func buildNightly(cfg config, rep *report, reps int, useGreedy bool) *system {
	return repeatSetup(cfg, rep, reps, func(cat *catalog.Catalog, db *storage.Database, sp *openSpan) *system {
		s := newSystem(cfg, rep, cat, db, tpcd.ViewSet10(cat), useGreedy, sp)
		warmUp(s, func() *storage.Database { return s.rt.Ex.DB }, s.refreshCycle)
		return s
	}, nil)
}

func nightlyCycles(cfg config, rep *report, s *system) *cycler {
	cy := &cycler{cfg: cfg, rep: rep, sys: s, do: s.refreshCycle, heapEvery: heapSampleEvery}
	for c := 0; c < cfg.seconds*nightlyCyclesPerSec; c++ {
		ops := s.win.next(s.rt.Ex.DB)
		cy.run(c, time.Now(), ops)
	}
	cy.finish()
	return cy
}

// measuredGain runs the NoGreedy plan on the same data and update stream
// for the first half of the cycles, and records greedy.measured_gain:
// NoGreedy's median untraced cycle over Greedy's, on the same cycle
// indices. Greedy's untraced half ran the even cycles, so both sides take
// the even cycles of that first half.
func measuredGain(cfg config, greedyRun *cycler) {
	half := config{seed: cfg.seed, seconds: max(cfg.seconds/2, 1), sf: cfg.sf}
	ng := &report{}
	base := buildNightly(half, ng, 1, false)
	nightlyCycles(half, ng, base)
	verifyViews(ng, base.rt)
	rep := greedyRun.rep
	for _, p := range ng.problems {
		rep.fail("NoGreedy leg: %s", p)
	}
	var even []time.Duration
	for i := 0; i < len(ng.cycles); i += 2 {
		even = append(even, ng.cycles[i])
	}
	greedy := rep.cycles[:min(len(even), len(rep.cycles))]
	rep.set("greedy.measured_gain", median(even)/median(greedy))
}

// runtimeLive records storage.live_heap_mb after set-up.
func runtimeLive(rep *report) { rep.set("storage.live_heap_mb", liveHeapMB()) }

// dayPhase enables serving on the refreshed runtime and runs reports
// closed-loop, as users would after a nightly refresh. A report answers
// the five-query mix back to back; its latency is one read. The state no
// longer changes, so every checked answer is compared with a recomputation
// at the final state.
func dayPhase(cfg config, rep *report, s *system) {
	sqls := bench.DefaultServeQueries()
	s.rt.EnableServing(core.ServeOptions{})
	n := cfg.seconds * dayReportsPerSec
	ac := newAnswerCheck(sqls, n*len(sqls))
	snap := s.rt.Snapshots().Current()
	runtime.GC() // start the phase without the refresh cycles' garbage
	for r := 0; r < n; r++ {
		t0 := time.Now()
		for cls, sql := range sqls {
			i := r*len(sqls) + cls
			sp := cfg.tr.begin("serve.query", traceName(cfg.tr, "query", i), nil)
			q0 := time.Now()
			res, err := s.rt.Query(sql)
			lat := time.Since(q0)
			sp.end()
			rep.attempted++
			if err != nil {
				rep.failed++
				continue
			}
			rep.queries = append(rep.queries, querySample{cls, lat})
			ac.offer(i, cls, snap, res)
		}
		rep.reads = append(rep.reads, time.Since(t0))
	}
	ac.verify(rep, s.cat)
	serveLayers(cfg, rep, s.rt)
}

// traceName names trace kind-i, or "" when tracing is off, so untraced
// runs do not format it.
func traceName(tr *tracer, kind string, i int) string {
	if tr == nil {
		return ""
	}
	return fmt.Sprintf("%s-%d", kind, i)
}

// serveLayers records the day phase's per-class latencies and cache hit
// share.
func serveLayers(cfg config, rep *report, rt *core.Runtime) {
	if cfg.tr == nil {
		return
	}
	by := make([][]time.Duration, len(classNames))
	for _, q := range rep.queries {
		by[q.class] = append(by[q.class], q.lat)
	}
	for i, name := range classNames {
		rep.set("serve."+name+"_ms_p50", median(by[i]))
		rep.set("serve."+name+"_ms_p99", percentile(by[i], 99))
	}
	if st := rt.ServeStats(); st.Queries > 0 {
		rep.set("cache.hit_frac", float64(st.CacheHits)/float64(st.Queries))
	}
}

// openLoop runs one reader goroutine that sends the query mix at a fixed
// rate while the calling goroutine starts a writer cycle at a fixed
// cadence. A query or cycle that is sent late because the one before it
// ran past its due time is timed from the due time, so a stall counts
// against every request it delays. One that is sent after the sender slept
// is timed from when the sender woke: how late the timer fired is the
// generator's own lateness, reported as bench.generator_late_ms_p99 and
// bench.writer_slip_ms, not the system's.
type openLoop struct {
	rate    float64
	cadence time.Duration
	// query answers sql and returns the snapshot the answer was computed
	// at (nil when it cannot be pinned).
	query func(sql string) (*core.QueryResult, *storage.Snapshot, error)
	span  string
}

func (o openLoop) run(cfg config, rep *report, cy *cycler, ac *answerCheck, db func() *storage.Database) {
	sqls := ac.sqls
	nq := int(float64(cfg.seconds) * o.rate)
	nc := int(time.Duration(cfg.seconds) * time.Second / o.cadence)
	period := time.Duration(float64(time.Second) / o.rate)
	start := time.Now().Add(20 * time.Millisecond)

	var late []time.Duration
	var qfailed int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nq; i++ {
			sent := start.Add(time.Duration(i) * period)
			if d := time.Until(sent); d > 0 {
				sent = sleepUntil(sent)
				late = append(late, sent.Sub(start.Add(time.Duration(i)*period)))
			}
			cls := i % len(sqls)
			sp := cfg.tr.begin(o.span, traceName(cfg.tr, "query", i), nil)
			res, snap, err := o.query(sqls[cls])
			lat := time.Since(sent)
			sp.end()
			if err != nil {
				qfailed++
				continue
			}
			rep.queries = append(rep.queries, querySample{cls, lat})
			rep.reads = append(rep.reads, lat)
			ac.offer(i, cls, snap, res)
		}
	}()

	var slip, maxSlip time.Duration
	for c := 0; c < nc; c++ {
		ops := cy.sys.win.next(db())
		due := start.Add(time.Duration(c) * o.cadence)
		begin := due
		if time.Until(due) > 0 {
			begin = sleepUntil(due)
		}
		slip = time.Since(due)
		maxSlip = max(maxSlip, slip)
		cy.run(c, begin, ops)
	}
	wg.Wait()

	rep.attempted += int64(nq)
	rep.failed += qfailed
	if slip > o.cadence {
		rep.fail("open loop invalid: the writer's last cycle started %v late (cadence %v)", slip, o.cadence)
	}
	rep.set("bench.generator_late_ms_p99", percentile(late, 99))
	rep.set("bench.writer_slip_ms", float64(maxSlip)/1e6)
}

// runLeg runs a leg of a traced run: body gets a config with a tracer
// and a report of its own, so the leg's timings stay out of the
// workload's. The leg's problems, attempts and spans join rep; body sets
// the layer metrics the leg stands for on rep itself.
func runLeg(cfg config, rep *report, name string, sf float64, body func(lc config, leg *report)) {
	lc := cfg
	lc.sf, lc.tr = sf, newTracer()
	leg := &report{}
	body(lc, leg)
	for _, p := range leg.problems {
		rep.fail("%s leg: %s", name, p)
	}
	rep.attempted += leg.attempted
	rep.failed += leg.failed
	cfg.tr.absorb(lc.tr, name+"/")
}

// mixedLeg runs serve-mixed inside nightly's traced run: the query mix
// sent open-loop at mixedQueryRate while a one-worker writer refreshes
// every mixedCadence, so merges copy on write and every update step
// publishes an epoch. Its read and cycle tails were too unsteady on a
// 2-core box to gate (README.md), so they are reported here as mixed.*.
func mixedLeg(cfg config, rep *report) {
	runLeg(cfg, rep, "serve-mixed", cfg.sf, func(lc config, leg *report) {
		s := repeatSetup(lc, leg, 1, func(cat *catalog.Catalog, db *storage.Database, sp *openSpan) *system {
			s := newSystem(lc, leg, cat, db, tpcd.ViewSet10(cat), true, sp)
			s.rt.SetWorkers(1)
			s.rt.EnableServing(core.ServeOptions{})
			warmUp(s, func() *storage.Database { return s.rt.Ex.DB }, s.refreshCycle)
			return s
		}, nil)
		rt := s.rt
		before, epoch0 := rt.ServeStats(), rt.Snapshots().Current().Epoch()
		cy := &cycler{cfg: lc, rep: leg, sys: s, do: s.refreshCycle}
		ac := newAnswerCheck(bench.DefaultServeQueries(), lc.seconds*mixedQueryRate)
		openLoop{
			rate: mixedQueryRate, cadence: mixedCadence, span: "serve.query",
			query: func(sql string) (*core.QueryResult, *storage.Snapshot, error) {
				snap := rt.Snapshots().Current()
				res, err := rt.Query(sql)
				return res, snap, err
			},
		}.run(lc, leg, cy, ac, func() *storage.Database { return rt.Ex.DB })
		cy.finish()
		verifyViews(leg, rt)
		ac.verify(leg, s.cat)

		ncyc := float64(len(leg.cycles) + len(leg.traced))
		st := rt.ServeStats()
		rep.set("cache.refills_per_cycle", float64(st.Refills-before.Refills)/ncyc)
		rep.set("storage.epochs_per_cycle", float64(rt.Snapshots().Current().Epoch()-epoch0)/ncyc)
		rep.set("bench.generator_late_ms_p99", leg.layer["bench.generator_late_ms_p99"])
		rep.set("bench.writer_slip_ms", leg.layer["bench.writer_slip_ms"])
		rep.set("mixed.cycle_ms_p50", median(leg.cycles))
		rep.set("mixed.cycle_ms_p90", percentile(leg.cycles, 90))
		rep.set("mixed.read_ms_p50", median(leg.reads))
		rep.set("mixed.read_ms_p99", percentile(leg.reads, 99))
		var rev []time.Duration
		for _, q := range leg.queries {
			if classNames[q.class] == "nation_rev" {
				rev = append(rev, q.lat)
			}
		}
		rep.set("mixed.nation_rev_ms_p50", median(rev))
	})
}

// shardedSystem is the ten-view system serving through an in-process fleet.
type shardedSystem struct {
	*system
	sr *core.ShardedRuntime
}

// cycle stages ops, refreshes locally, then installs the new epoch on the
// fleet.
func (s *shardedSystem) cycle(ops []ingest.Op, tr *tracer, cyc *openSpan) error {
	if err := s.refreshCycle(ops, tr, cyc); err != nil {
		return err
	}
	sp := tr.begin("shard.install", cyc.traceID(), cyc)
	defer sp.end()
	return s.sr.Install()
}

// shardedLeg runs the sharded serving path inside nightly's traced run:
// the serve-mixed open loop, served through a 2-shard in-process fleet over
// 4 partitions while the writer refreshes and installs, at shardSF.
func shardedLeg(cfg config, rep *report) {
	runLeg(cfg, rep, "serve-sharded", shardSF, func(lc config, leg *report) {
		s := repeatSetup(lc, leg, 1, func(cat *catalog.Catalog, db *storage.Database, sp *openSpan) *shardedSystem {
			base := newSystem(lc, leg, cat, db, tpcd.ViewSet10(cat), true, sp)
			base.rt.SetWorkers(1)
			en := lc.tr.begin("shard.enable", sp.traceID(), sp)
			sr, err := base.rt.EnableShardedInProc(core.ShardOptions{Shards: 2, Partitions: 4})
			en.end()
			if err != nil {
				panic(fmt.Sprintf("perfbench: enable sharding: %v", err))
			}
			s := &shardedSystem{system: base, sr: sr}
			warmUp(base, func() *storage.Database { return base.rt.Ex.DB }, s.cycle)
			return s
		}, nil)
		defer s.sr.Close()
		rt, sr := s.rt, s.sr
		before := sr.Stats()
		cy := &cycler{cfg: lc, rep: leg, sys: s.system, do: s.cycle}
		sqls := bench.DefaultServeQueries()
		ac := newAnswerCheck(sqls, lc.seconds*shardQueryRate)
		openLoop{
			rate: shardQueryRate, cadence: shardCadence, span: "shard.query",
			query: func(sql string) (*core.QueryResult, *storage.Snapshot, error) {
				res, err := sr.Query(sql)
				if err != nil {
					return nil, nil, err
				}
				return res, rt.Snapshots().At(res.Epoch), nil
			},
		}.run(lc, leg, cy, ac, func() *storage.Database { return rt.Ex.DB })
		cy.finish()
		verifyViews(leg, rt)
		ac.verify(leg, s.cat)
		shardedMatchesLocal(leg, sr, sqls)

		st := sr.Stats()
		sc, fb := st.Scattered-before.Scattered, st.Fallbacks-before.Fallbacks
		rep.set("shard.scattered_frac", float64(sc)/float64(max(sc+fb, 1)))
		rep.set("shard.fallbacks", float64(fb))
		inst := lc.tr.durations("shard.install")
		rep.set("shard.install_ms_p50", median(inst))
		rep.set("shard.install_ms_p90", percentile(inst, 90))
		rep.set("shard.local_refresh_ms_p50", spanMedian(lc, "exec.refresh"))
	})
}

// shardedMatchesLocal is the final sharded gate: with the fleet at the
// current epoch, every query's sharded answer must equal local execution,
// row for row for non-aggregates (both run the identical plan) and as a
// multiset for aggregates, whose group order may differ.
func shardedMatchesLocal(rep *report, sr *core.ShardedRuntime, sqls []string) {
	for i, sql := range sqls {
		got, err := sr.Query(sql)
		if err != nil {
			rep.fail("final sharded %s: %v", classNames[i], err)
			continue
		}
		local, err := sr.Runtime().Query(sql)
		if err != nil {
			rep.fail("final local %s: %v", classNames[i], err)
			continue
		}
		same := storage.EqualMultiset(got.Rows, local.Rows)
		if same && !strings.Contains(sql, "GROUP BY") {
			for r, t := range local.Rows.Rows() {
				if !t.Equal(got.Rows.Rows()[r]) {
					same = false
					break
				}
			}
		}
		if !same {
			rep.fail("final sharded %s differs from local execution", classNames[i])
		}
	}
}

// durableSystem is the five-aggregate-view system behind the WAL.
type durableSystem struct {
	*system
	dir string
	enq []time.Duration // Ingest call times on traced cycles

	sent, refused int64 // ops offered to Ingest and ops it refused
}

// cycle sends ops through Runtime.Ingest and returns once FlushIngest has
// made them durable and published.
func (s *durableSystem) cycle(ops []ingest.Op, tr *tracer, cyc *openSpan) error {
	sp := tr.begin("ingest.enqueue", cyc.traceID(), cyc)
	for _, op := range ops {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		err := s.rt.Ingest(op)
		if tr != nil {
			s.enq = append(s.enq, time.Since(t0))
		}
		s.sent++
		if err != nil {
			s.refused++
			return fmt.Errorf("ingest %s: %w", op.Rel, err)
		}
	}
	sp.end()
	sp = tr.begin("ingest.flush", cyc.traceID(), cyc)
	defer sp.end()
	return s.rt.FlushIngest()
}

func (s *durableSystem) close() {
	if err := s.rt.CloseDurable(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing WAL: %v\n", err)
	}
	os.RemoveAll(s.dir)
}

var durableOpts = core.DurableOptions{Fsync: true, CommitWindow: 2 * time.Millisecond}

// runIngest streams each cycle's ops through the durable ingest path, fsync
// on, and waits for them to become visible before the next cycle.
func runIngest(cfg config, rep *report) {
	n := 0
	s := repeatSetup(cfg, rep, setupReps, func(cat *catalog.Catalog, db *storage.Database, sp *openSpan) *durableSystem {
		plan := optimize(cfg, rep, cat, tpcd.ViewSet5(cat, true), true, sp)
		n++
		dir := filepath.Join(cfg.work, fmt.Sprintf("wal-%d-%d", os.Getpid(), n))
		os.RemoveAll(dir)
		opts := durableOpts
		opts.Dir = dir
		m := cfg.tr.begin("exec.materialize", sp.traceID(), sp)
		rt, _, err := plan.OpenDurable(db, opts)
		m.end()
		if err != nil {
			panic(fmt.Sprintf("perfbench: open WAL: %v", err))
		}
		if err := rt.StartIngest(); err != nil {
			panic(fmt.Sprintf("perfbench: start ingest: %v", err))
		}
		s := &durableSystem{dir: dir, system: &system{cat: cat, plan: plan, rt: rt,
			win: newWindow(cat, db, tpcd.UpdatedRelations(), updatePct, cfg.seed)}}
		warmUp(s.system, s.snapDB, s.cycle)
		return s
	}, (*durableSystem).close)
	defer s.close()
	if cfg.tr != nil {
		runtimeLive(rep)
	}
	rt := s.rt
	before := rt.DurableStats()
	s.sent, s.refused = 0, 0 // count only the measured cycles' ops
	cy := &cycler{cfg: cfg, rep: rep, sys: s.system, do: s.cycle, keepOps: cfg.tr != nil, heapEvery: heapSampleEvery}
	for c := 0; c < cfg.seconds*ingestCyclesPerSec; c++ {
		ops := s.win.next(s.snapDB())
		cy.run(c, time.Now(), ops)
	}
	cy.finish()
	after := rt.DurableStats()
	rep.attempted += s.sent
	rep.failed += s.refused
	verifyViews(rep, rt)
	if err := rt.StopIngest(); err != nil {
		rep.fail("stop ingest: %v", err)
	}
	if cfg.tr != nil {
		ncyc := float64(len(rep.cycles) + len(rep.traced))
		rows := 0
		for _, d := range cy.st.deltas {
			rows += d
		}
		rep.set("ingest.enqueue_us_p99", percentile(s.enq, 99)*1e3)
		rep.set("ingest.flush_ms_p50", spanMedian(cfg, "ingest.flush"))
		rep.set("ingest.batches_per_cycle", float64(after.WAL.Appends-before.WAL.Appends)/ncyc)
		rep.set("ingest.shed", float64(after.Queue.Shed-before.Queue.Shed))
		rep.set("wal.syncs_per_cycle", float64(after.WAL.Syncs-before.WAL.Syncs)/ncyc)
		rep.set("wal.bytes_per_row", float64(after.WAL.Bytes-before.WAL.Bytes)/float64(rows))
		rep.set("wal.commit_wait_ms", float64(after.AvgCommitLatency)/1e6)
		rep.set("storage.spills", float64(after.Spills-before.Spills))
		rep.set("storage.epochs_per_cycle", float64(after.Epoch-before.Epoch)/ncyc)
		walAppend(cfg, rep, cy.kept)
	}
	commonLayers(cfg, rep, s.system, func(c *catalog.Catalog) []tpcd.NamedView { return tpcd.ViewSet5(c, true) })
	dayPhase(cfg, rep, s.system)
}

// snapDB is the published database, safe to read while the ingest loop
// refreshes.
func (s *durableSystem) snapDB() *storage.Database { return s.rt.Snapshots().Current().Database() }

// walAppend records wal.append_ms_p50: a log opened on a scratch directory
// with the workload's options takes each traced cycle's ops as one batch.
func walAppend(cfg config, rep *report, batches [][]ingest.Op) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("wal-append-%d", os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Fsync: durableOpts.Fsync, CommitWindow: durableOpts.CommitWindow})
	if err != nil {
		rep.fail("scratch WAL: %v", err)
		return
	}
	var ds []time.Duration
	for i, ops := range batches {
		b := &wal.Batch{Seq: int64(i + 1), Epoch: int64(i + 1), Deltas: groupOps(ops)}
		t0 := time.Now()
		if err := log.AppendBatch(b); err != nil {
			rep.fail("scratch WAL append: %v", err)
			break
		}
		ds = append(ds, time.Since(t0))
	}
	if err := log.Close(); err != nil {
		rep.fail("scratch WAL close: %v", err)
	}
	rep.set("wal.append_ms_p50", median(ds))
}

// groupOps folds ops into one delta record per (relation, insert/delete),
// in first-appearance order, as the ingest loop logs a batch.
func groupOps(ops []ingest.Op) []wal.DeltaRec {
	var out []wal.DeltaRec
	idx := make(map[string]int)
	for _, op := range ops {
		k := fmt.Sprintf("%s/%v", op.Rel, op.Del)
		j, ok := idx[k]
		if !ok {
			j = len(out)
			out = append(out, wal.DeltaRec{Rel: op.Rel, Del: op.Del})
			idx[k] = j
		}
		out[j].Rows = append(out[j].Rows, op.Tuple)
	}
	return out
}

// sleepUntil sleeps until t and returns when it woke.
func sleepUntil(t time.Time) time.Time {
	time.Sleep(time.Until(t))
	return time.Now()
}
