package shard

// Randomized coordinator properties over synthetic plans: lowering triggers
// the broadcast path iff the build side fits the threshold, scatter plans
// touch each leaf row exactly once (the Ord streams partition the leaf
// index space), and a real worker fleet — staged through the wire codec —
// gathers byte-identical answers to local execution at every shard count.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/exec/equivtest"
	"repro/internal/storage"
	"repro/internal/volcano"
)

// namedPlan is one served plan shape of the join fixture.
type namedPlan struct {
	name string
	plan *volcano.PlanNode
}

// buildJoinFixture creates a three-table database and the plan shapes the
// scatter path must reproduce, first the filter→join one: probe side "fact"
// (random size, a float column holding NaN, −0.0 and 0.0), build side "dim",
// equi-key on k, a filter on the fact side and a residual inequality across
// the join. The others add a key-reordering projection and a filter above
// that join, a second broadcast join ("dim2") probed by its composite rows,
// and a filter on the float column.
func buildJoinFixture(rng *rand.Rand, factN, dimN int) (*storage.Database, []namedPlan) {
	factSchema := algebra.Schema{
		{Rel: "fact", Name: "k", Type: catalog.Int, Width: 8},
		{Rel: "fact", Name: "v", Type: catalog.Int, Width: 8},
		{Rel: "fact", Name: "f", Type: catalog.Float, Width: 8},
	}
	dimSchema := algebra.Schema{
		{Rel: "dim", Name: "k", Type: catalog.Int, Width: 8},
		{Rel: "dim", Name: "w", Type: catalog.Int, Width: 8},
	}
	dim2Schema := algebra.Schema{
		{Rel: "dim2", Name: "k", Type: catalog.Int, Width: 8},
		{Rel: "dim2", Name: "s", Type: catalog.String, Width: 8},
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.5}
	db := storage.NewDatabase()
	fact := db.Create("fact", factSchema)
	for i := 0; i < factN; i++ {
		fact.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(20)), algebra.NewInt(rng.Int63n(100)),
			algebra.NewFloat(floats[rng.Intn(len(floats))])})
	}
	dim := db.Create("dim", dimSchema)
	for i := 0; i < dimN; i++ {
		dim.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(20)), algebra.NewInt(rng.Int63n(100))})
	}
	dim2N := 1 + rng.Intn(8)
	dim2 := db.Create("dim2", dim2Schema)
	for i := 0; i < dim2N; i++ {
		dim2.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(20)), algebra.NewString(string(rune('a' + i)))})
	}

	id := 0
	node := func(schema algebra.Schema, rows float64, op *dag.Op, children ...*volcano.PlanNode) *volcano.PlanNode {
		id++
		e := &dag.Equiv{ID: id, Key: fmt.Sprintf("n%d", id), Schema: schema}
		if op.Kind == dag.OpScan {
			e.IsTable, e.Tables = true, []string{op.Table}
		}
		return &volcano.PlanNode{E: e, Access: volcano.Compute, Algo: volcano.AlgoHash,
			Op: op, Children: children, Rows: rows}
	}
	scan := func(table string, schema algebra.Schema, n int) *volcano.PlanNode {
		return node(schema, float64(n), &dag.Op{Kind: dag.OpScan, Table: table})
	}
	sel := func(child *volcano.PlanNode, rows float64, cs ...algebra.Cmp) *volcano.PlanNode {
		return node(child.E.Schema, rows, &dag.Op{Kind: dag.OpSelect, Pred: algebra.Pred{Conjuncts: cs}}, child)
	}
	join := func(l, r *volcano.PlanNode, rows float64, cs ...algebra.Cmp) *volcano.PlanNode {
		return node(l.E.Schema.Concat(r.E.Schema), rows, &dag.Op{Kind: dag.OpJoin, Pred: algebra.Pred{Conjuncts: cs}}, l, r)
	}

	fN := float64(factN)
	filterJoin := join(
		sel(scan("fact", factSchema, factN), fN*0.8, algebra.CmpConst("fact.v", algebra.LT, algebra.NewInt(80))),
		scan("dim", dimSchema, dimN), fN,
		algebra.Eq("fact.k", "dim.k"),
		algebra.Cmp{Op: algebra.LT, L: algebra.C("fact.v"), R: algebra.C("dim.w")})
	reordered := algebra.Schema{dimSchema[1], factSchema[2], factSchema[0], factSchema[1]}
	above := sel(node(reordered, fN, &dag.Op{Kind: dag.OpProject}, filterJoin), fN*0.3,
		algebra.CmpConst("dim.w", algebra.GE, algebra.NewInt(30)),
		algebra.CmpConst("fact.k", algebra.NE, algebra.NewInt(3)))
	twoJoins := join(above, scan("dim2", dim2Schema, dim2N), fN*0.3, algebra.Eq("fact.k", "dim2.k"))
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	lits := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5}
	floatFilter := join(
		sel(scan("fact", factSchema, factN), fN*0.5,
			algebra.CmpConst("fact.f", ops[rng.Intn(len(ops))], algebra.NewFloat(lits[rng.Intn(len(lits))]))),
		scan("dim", dimSchema, dimN), fN, algebra.Eq("fact.k", "dim.k"))
	return db, []namedPlan{
		{"filter→join", filterJoin},
		{"join→project→filter", above},
		{"second join on composite rows", twoJoins},
		{"NaN/-0.0 float filter", floatFilter},
	}
}

// fixtureEnv lowers against db with a local executor for build sides.
func fixtureEnv(db *storage.Database, maxBroadcast int) LowerEnv {
	ex := exec.NewExecutor(db)
	return LowerEnv{
		Leaf: func(p *volcano.PlanNode) (LeafRef, algebra.Schema, bool) {
			if !p.E.IsTable {
				return LeafRef{}, nil, false
			}
			name := p.E.Tables[0]
			return LeafRef{Rel: name}, db.MustRelation(name).Schema(), true
		},
		Exec: func(p *volcano.PlanNode) *storage.Relation {
			if p.Access == volcano.Probe {
				return ex.Stored(p.E)
			}
			return ex.Run(p)
		},
		MaxBroadcast: maxBroadcast,
	}
}

func TestLowerBroadcastThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for it := 0; it < 20; it++ {
		dimN := 1 + rng.Intn(30)
		db, plans := buildJoinFixture(rng, 50+rng.Intn(100), dimN)
		plan := plans[0].plan
		buildLen := db.MustRelation("dim").Len()

		// At exactly the build size the broadcast path triggers...
		req, ok := Lower(plan, fixtureEnv(db, buildLen))
		if !ok {
			t.Fatalf("it %d: Lower rejected build of %d at threshold %d", it, buildLen, buildLen)
		}
		var joins int
		for _, st := range req.Stages {
			if st.Kind == StageJoin {
				joins++
				if len(st.Build) != buildLen {
					t.Fatalf("it %d: shipped %d build rows, dim has %d", it, len(st.Build), buildLen)
				}
			}
		}
		if joins != 1 {
			t.Fatalf("it %d: %d join stages, want 1", it, joins)
		}
		// ...and one row above it the plan is not shardable.
		if _, ok := Lower(plan, fixtureEnv(db, buildLen-1)); ok {
			t.Fatalf("it %d: Lower accepted build of %d over threshold %d", it, buildLen, buildLen-1)
		}
	}
}

// stageFleet boots S volatile workers, stages both base relations at epoch,
// and returns a coordinator over in-process (codec round-tripping) clients.
func stageFleet(t *testing.T, db *storage.Database, a Assignment, epoch int64) *Coordinator {
	t.Helper()
	clients := make([]Client, a.Shards)
	for s := 0; s < a.Shards; s++ {
		w, err := NewWorker(s, a, "")
		if err != nil {
			t.Fatal(err)
		}
		clients[s] = InProc{W: w}
	}
	co, err := NewCoordinator(a, clients)
	if err != nil {
		t.Fatal(err)
	}
	for s, rg := range a.Ranges() {
		req := &StageReq{Epoch: epoch, From: -1, Base: true, Rels: map[string]Slice{}, Mats: map[int32]Slice{}}
		for _, name := range db.Names() {
			req.Rels[name] = SliceOf(db.MustRelation(name), a, rg[0], rg[1])
		}
		if err := clients[s].Stage(req); err != nil {
			t.Fatalf("stage shard %d: %v", s, err)
		}
	}
	return co
}

// TestScatterGatherMatchesLocal: every fixture plan shape, lowered and run
// on fleets of one, two and four shards, gathers a relation byte-identical
// (bit-equal values, so NaN and −0.0 included) to local execution.
func TestScatterGatherMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	answered := make(map[string]int)
	for it := 0; it < 15; it++ {
		db, plans := buildJoinFixture(rng, 30+rng.Intn(200), 1+rng.Intn(25))
		for _, np := range plans {
			want := exec.NewExecutor(db).Run(np.plan)
			answered[np.name] += want.Len()
			req, ok := Lower(np.plan, fixtureEnv(db, MaxBroadcastRows))
			if !ok {
				t.Fatalf("it %d %s: plan not lowerable", it, np.name)
			}
			req.Epoch = int64(it)
			for _, shards := range []int{1, 2, 4} {
				a := Assignment{Partitions: 8, Shards: shards}.Norm()
				co := stageFleet(t, db, a, req.Epoch)
				got, err := co.Scatter(req, np.plan.E.Schema)
				if err != nil {
					t.Fatalf("it %d %s shards %d: %v", it, np.name, shards, err)
				}
				if err := equivtest.Identical(want, got); err != nil {
					t.Fatalf("it %d %s shards %d: %v", it, np.name, shards, err)
				}
			}
		}
	}
	for name, n := range answered {
		if n == 0 {
			t.Errorf("%s answered no rows in any iteration; the comparison is vacuous", name)
		}
	}
}

// TestScatterTouchesEachLeafRowOnce: the union of the fleet's Ord streams
// for an unfiltered leaf scan is exactly the leaf's row index set.
func TestScatterTouchesEachLeafRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for it := 0; it < 10; it++ {
		db := storage.NewDatabase()
		schema := algebra.Schema{{Rel: "t", Name: "a", Type: catalog.Int, Width: 8}}
		rel := db.Create("t", schema)
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			rel.Insert(algebra.Tuple{algebra.NewInt(rng.Int63n(50))})
		}
		a := Assignment{Partitions: 1 + rng.Intn(12), Shards: 1 + rng.Intn(5)}.Norm()
		clients := make([]Client, a.Shards)
		seen := make(map[int32]int)
		for s, rg := range a.Ranges() {
			w, err := NewWorker(s, a, "")
			if err != nil {
				t.Fatal(err)
			}
			clients[s] = InProc{W: w}
			req := &StageReq{Epoch: 1, From: -1, Base: true,
				Rels: map[string]Slice{"t": SliceOf(rel, a, rg[0], rg[1])},
				Mats: map[int32]Slice{}}
			if err := clients[s].Stage(req); err != nil {
				t.Fatal(err)
			}
			p, err := clients[s].Scatter(&ScatterReq{Epoch: 1, Leaf: LeafRef{Rel: "t"}})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range p.Ord {
				seen[o]++
			}
		}
		if len(seen) != n {
			t.Fatalf("it %d: fleet touched %d of %d leaf rows", it, len(seen), n)
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("it %d: leaf row %d scanned by %d shards", it, idx, c)
			}
		}
	}
}

// TestWorkerStageRecovery: a worker with a stage log recovers its staged
// epochs after an unclean stop (the handle is simply dropped, as SIGKILL
// would), including a torn tail, and deltas apply onto the recovered state.
func TestWorkerStageRecovery(t *testing.T) {
	dir := t.TempDir()
	a := Assignment{Partitions: 4, Shards: 2}.Norm()
	mk := func(epoch int64, base bool, from int64, rows ...int64) *StageReq {
		s := Slice{}
		for i, v := range rows {
			s.Rows = append(s.Rows, algebra.Tuple{algebra.NewInt(v)})
			s.Idx = append(s.Idx, int32(i))
		}
		return &StageReq{Epoch: epoch, From: from, Base: base,
			Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}
	}
	w, err := NewWorker(0, a, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(mk(1, true, -1, 10, 11)); err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(mk(2, false, 1, 20, 21, 22)); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate SIGKILL by abandoning the handle.

	w2, err := NewWorker(0, a, dir)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	h := w2.Hello()
	if h.Staged != 2 {
		t.Fatalf("recovered staged epoch %d, want 2", h.Staged)
	}
	p, err := w2.Scatter(&ScatterReq{Epoch: 2, Leaf: LeafRef{Rel: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 3 || p.Rows[0][0].I != 20 {
		t.Fatalf("recovered state serves %v", p.Rows)
	}
	// A delta onto the recovered state must apply (From <= staged).
	if err := w2.Stage(mk(3, false, 2, 30)); err != nil {
		t.Fatalf("delta after recovery: %v", err)
	}
	// A delta from a future base must be refused (coordinator then
	// re-bootstraps).
	if err := w2.Stage(mk(9, false, 8)); err == nil {
		t.Fatal("accepted delta with missing base")
	}
	w2.Close()
}

// TestWorkerCommitKeepsPreviousEpoch: a reader that pinned gate N−1 just
// before the coordinator flipped to N scatters after Commit(N) has arrived,
// so the commit keeps the previously committed epoch; a scatter two installs
// back is refused.
func TestWorkerCommitKeepsPreviousEpoch(t *testing.T) {
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, "")
	if err != nil {
		t.Fatal(err)
	}
	stage := func(epoch int64) {
		t.Helper()
		s := Slice{Rows: []algebra.Tuple{{algebra.NewInt(epoch)}}, Idx: []int32{0}}
		if err := w.Stage(&StageReq{Epoch: epoch, From: epoch - 1, Base: epoch == 1,
			Rels: map[string]Slice{"t": s}, Mats: map[int32]Slice{}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(epoch); err != nil {
			t.Fatal(err)
		}
	}
	scatter := func(epoch int64) error {
		p, err := w.Scatter(&ScatterReq{Epoch: epoch, Leaf: LeafRef{Rel: "t"}})
		if err == nil && (len(p.Rows) != 1 || p.Rows[0][0].I != epoch) {
			t.Fatalf("epoch %d serves %v", epoch, p.Rows)
		}
		return err
	}
	stage(1)
	stage(2)
	stage(3)
	if err := scatter(2); err != nil {
		t.Fatalf("scatter at the previous gate after the next commit: %v", err)
	}
	if err := scatter(3); err != nil {
		t.Fatal(err)
	}
	if err := scatter(1); err == nil {
		t.Fatal("scatter two installs back was served; want the epoch pruned")
	}
}

// TestStageRefusesRaggedSlice: a slice whose rows differ in width (only a
// malformed wire peer sends one) is refused when staged, before it reaches
// the stage log, so the worker keeps serving its last epoch and recovers
// cleanly.
func TestStageRefusesRaggedSlice(t *testing.T) {
	dir := t.TempDir()
	a := Assignment{Partitions: 4, Shards: 1}.Norm()
	w, err := NewWorker(0, a, dir)
	if err != nil {
		t.Fatal(err)
	}
	good := Slice{Rows: []algebra.Tuple{{algebra.NewInt(1)}}, Idx: []int32{0}}
	if err := w.Stage(&StageReq{Epoch: 1, From: -1, Base: true,
		Rels: map[string]Slice{"t": good}, Mats: map[int32]Slice{}}); err != nil {
		t.Fatal(err)
	}
	ragged := Slice{
		Rows: []algebra.Tuple{{algebra.NewInt(1)}, {algebra.NewInt(2), algebra.NewInt(3)}},
		Idx:  []int32{0, 1},
	}
	if err := w.Stage(&StageReq{Epoch: 2, From: 1,
		Rels: map[string]Slice{"t": ragged}, Mats: map[int32]Slice{}}); err == nil {
		t.Fatal("staged a slice whose rows differ in width")
	}
	if h := w.Hello(); h.Staged != 1 {
		t.Fatalf("staged epoch %d after the refused stage, want 1", h.Staged)
	}
	w.Close()
	w2, err := NewWorker(0, a, dir)
	if err != nil {
		t.Fatalf("recovery after a refused stage: %v", err)
	}
	defer w2.Close()
	if h := w2.Hello(); h.Staged != 1 {
		t.Fatalf("recovered staged epoch %d, want 1", h.Staged)
	}
}
