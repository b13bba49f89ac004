package shard

// Worker: owns one contiguous partition range, holds a bounded window of
// staged epoch states, executes scatter pipelines against them, and — when
// given a directory — persists every stage request to a CRC-framed stage log
// before acknowledging, so a SIGKILLed worker recovers its staged epochs by
// replay.

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/wal"
)

// keepStates bounds the in-memory epoch window per worker. The coordinator
// commits (prunes) after every install, so the window only has to cover
// epochs between two installs plus in-flight readers.
const keepStates = 8

// stageLogName is the per-worker stage log file.
const stageLogName = "stage.log"

// state is one staged epoch's image of the shard's slices. States are
// immutable once entered into the window: applying a delta builds fresh maps
// that share every unchanged leaf, so scatters read them without locks, and
// a leaf's column and key-hash caches carry over to later epochs.
type state struct {
	rels map[string]*staged
	mats map[int32]*staged
}

// staged is one staged slice as the engine sees it: the rows as a relation of
// anonymous columns, whose ColView is the worker's only key-hash cache, and
// each row's global row index.
type staged struct {
	rel *storage.Relation
	idx []int32
}

// stageSlice stages a shipped slice, refusing rows of differing widths
// (reachable only from the wire) and seeding the leaf's key-hash cache with
// the shipped hash columns (InstallKeyHashes ignores a wrong-length column).
func stageSlice(s Slice) (*staged, error) {
	if len(s.Idx) != len(s.Rows) {
		return nil, fmt.Errorf("%d row indexes for %d rows", len(s.Idx), len(s.Rows))
	}
	rel, err := relationOf(s.Rows)
	if err != nil {
		return nil, err
	}
	cv := rel.ColView()
	for k, cols := range s.HashCols {
		if k < len(s.Hashes) {
			cv.InstallKeyHashes(cols, s.Hashes[k])
		}
	}
	return &staged{rel: rel, idx: s.Idx}, nil
}

// relationOf adopts rows as a relation of anonymous columns, or reports the
// first row whose width differs from row 0's.
func relationOf(rows []algebra.Tuple) (*storage.Relation, error) {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	for i, t := range rows {
		if len(t) != width {
			return nil, fmt.Errorf("row %d has width %d, row 0 has %d", i, len(t), width)
		}
	}
	rel := storage.NewRelation(make(algebra.Schema, width))
	rel.ReplaceRows(rows)
	return rel, nil
}

// Worker executes one shard. Methods are safe for concurrent use.
type Worker struct {
	shard int
	asg   Assignment
	dir   string // "" disables durability (in-proc tests)

	mu        sync.Mutex
	closed    bool
	logF      *os.File
	states    map[int64]*state
	order     []int64 // staged epochs, ascending
	staged    int64   // highest durably staged epoch, -1 none
	committed int64   // highest commit seen, -1 none
}

// NewWorker creates a worker for shard index `shard` of the assignment. A
// non-empty dir enables the durable stage log; existing log contents are
// replayed (torn or corrupt tails truncate, exactly like the WAL).
func NewWorker(shard int, asg Assignment, dir string) (*Worker, error) {
	asg = asg.Norm()
	if shard < 0 || shard >= asg.Shards {
		return nil, fmt.Errorf("shard: worker index %d out of range [0,%d)", shard, asg.Shards)
	}
	w := &Worker{
		shard:     shard,
		asg:       asg,
		dir:       dir,
		states:    make(map[int64]*state),
		staged:    -1,
		committed: -1,
	}
	if dir == "" {
		return w, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, stageLogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w.logF = f
	return w, nil
}

// recover replays the stage log, applying each staged epoch in order, and
// truncates the log after the last intact frame.
func (w *Worker) recover() error {
	path := filepath.Join(w.dir, stageLogName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	good := 0
	rest := data
	for len(rest) > 0 {
		payload, next, n, err := wal.NextFrame(rest)
		if err != nil {
			break // torn or corrupt tail: recover the prefix
		}
		req, err := DecodeStage(payload)
		if err != nil {
			break
		}
		st, err := w.nextStateLocked(req)
		if err != nil {
			return fmt.Errorf("shard: stage log replay at offset %d: %w", good, err)
		}
		w.enterLocked(req.Epoch, st)
		good += n
		rest = next
	}
	if good != len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return err
		}
	}
	return nil
}

// Hello reports the worker's identity and durable progress.
func (w *Worker) Hello() *Hello {
	w.mu.Lock()
	defer w.mu.Unlock()
	return &Hello{
		Shard:      w.shard,
		Shards:     w.asg.Shards,
		Partitions: w.asg.Partitions,
		Staged:     w.staged,
		Committed:  w.committed,
	}
}

// Stage durably installs one epoch: the request is framed, appended to the
// stage log, and fsynced BEFORE the in-memory window is updated and the call
// acknowledges — the staging half of the two-phase install. Re-staging an
// epoch at or below the staged watermark is an idempotent no-op.
func (w *Worker) Stage(req *StageReq) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("shard %d: worker closed", w.shard)
	}
	if req.Epoch <= w.staged {
		return nil
	}
	if !req.Base && w.staged < req.From {
		return fmt.Errorf("shard %d: delta from epoch %d but staged only %d", w.shard, req.From, w.staged)
	}
	st, err := w.nextStateLocked(req)
	if err != nil {
		return fmt.Errorf("shard %d: stage epoch %d: %w", w.shard, req.Epoch, err)
	}
	if w.logF != nil {
		if req.Base {
			if err := w.rewriteLogLocked(req); err != nil {
				return err
			}
		} else {
			frame := wal.AppendFrame(nil, EncodeStage(req))
			if _, err := w.logF.Write(frame); err != nil {
				return err
			}
			if err := w.logF.Sync(); err != nil {
				return err
			}
		}
	}
	w.enterLocked(req.Epoch, st)
	return nil
}

// rewriteLogLocked replaces the stage log with a single Base frame
// (tmp-write, fsync, rename, dir fsync), resetting growth after bootstraps.
func (w *Worker) rewriteLogLocked(req *StageReq) error {
	path := filepath.Join(w.dir, stageLogName)
	tmp := path + ".tmp"
	frame := wal.AppendFrame(nil, EncodeStage(req))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if w.logF != nil {
		w.logF.Close()
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(w.dir)
	if err == nil {
		d.Sync()
		d.Close()
	}
	w.logF, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	return err
}

// nextStateLocked builds req's epoch state on top of the latest staged one,
// sharing every leaf the request does not replace.
func (w *Worker) nextStateLocked(req *StageReq) (*state, error) {
	st := &state{rels: map[string]*staged{}, mats: map[int32]*staged{}}
	if !req.Base && len(w.order) > 0 {
		base := w.states[w.order[len(w.order)-1]]
		maps.Copy(st.rels, base.rels)
		maps.Copy(st.mats, base.mats)
	}
	for _, id := range req.Drops {
		delete(st.mats, id)
	}
	for name, s := range req.Rels {
		lf, err := stageSlice(s)
		if err != nil {
			return nil, fmt.Errorf("relation %s: %w", name, err)
		}
		st.rels[name] = lf
	}
	for id, s := range req.Mats {
		lf, err := stageSlice(s)
		if err != nil {
			return nil, fmt.Errorf("result %d: %w", id, err)
		}
		st.mats[id] = lf
	}
	return st, nil
}

// enterLocked enters a staged epoch into the state window.
func (w *Worker) enterLocked(epoch int64, st *state) {
	w.states[epoch] = st
	w.order = append(w.order, epoch)
	w.staged = epoch
	for len(w.order) > keepStates {
		delete(w.states, w.order[0])
		w.order = w.order[1:]
	}
}

// Commit records the coordinator's gate flip and prunes the states below the
// previous commit, so a reader that pinned the old gate just before the flip
// still finds its epoch staged. Advisory: correctness never depends on a
// commit arriving (the log and the staged window carry the install).
func (w *Worker) Commit(epoch int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch <= w.committed {
		return nil
	}
	floor := w.committed
	w.committed = epoch
	keep := w.order[:0]
	for _, e := range w.order {
		if e >= floor {
			keep = append(keep, e)
		} else {
			delete(w.states, e)
		}
	}
	w.order = keep
	return nil
}

// Close releases the stage log handle; further Stage and Scatter calls fail
// (tests use a closed worker to stand in for a dead process).
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.logF != nil {
		err := w.logF.Close()
		w.logF = nil
		return err
	}
	return nil
}

// Scatter runs the request's pipeline over this shard's slice of the leaf at
// the requested (staged) epoch. States are immutable, so execution happens
// outside the lock.
func (w *Worker) Scatter(req *ScatterReq) (*Partial, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, fmt.Errorf("shard %d: worker closed", w.shard)
	}
	st := w.states[req.Epoch]
	window := append([]int64(nil), w.order...)
	w.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("shard %d: epoch %d not staged (window %v)", w.shard, req.Epoch, window)
	}
	var lf *staged
	if req.Leaf.Mat {
		lf = st.mats[req.Leaf.ID]
	} else {
		lf = st.rels[req.Leaf.Rel]
	}
	if lf == nil {
		return nil, fmt.Errorf("shard %d: unknown scatter leaf %+v at epoch %d", w.shard, req.Leaf, req.Epoch)
	}
	p := &pipe{rel: lf.rel, ord: lf.idx, pos: seq[int32](lf.rel.Len()), cols: seq[int](len(lf.rel.Schema()))}
	for si, stg := range req.Stages {
		if len(p.pos) == 0 {
			break // nothing left to transform; an empty leaf has no columns to check
		}
		if err := p.run(stg); err != nil {
			return nil, fmt.Errorf("shard %d: stage %d: %w", w.shard, si, err)
		}
	}
	rows, ord := p.emit()
	return &Partial{Epoch: req.Epoch, Rows: rows, Ord: ord}, nil
}

// pipe is a scatter pipeline in flight over one relation: pos selects rows
// of rel (ascending), cols maps pipeline columns to relation columns, and
// ord holds each relation row's scatter-leaf index. Filters narrow pos and
// projections rewrite cols, so neither moves a value; a join emits new rows,
// and its output becomes the next relation.
type pipe struct {
	rel  *storage.Relation
	ord  []int32
	pos  []int32
	cols []int
}

// run applies one stage. The join replays the local broadcast join exactly:
// buckets in build-row order, probe rows in pipeline order, so the emission
// order within one probe row equals single-node execution.
func (p *pipe) run(stg Stage) error {
	switch stg.Kind {
	case StageFilter:
		return p.filter(stg.Pred)

	case StageProject:
		cols, err := p.colsOf(stg.Cols)
		if err != nil {
			return fmt.Errorf("projection: %w", err)
		}
		p.cols = cols
		return nil

	case StageJoin:
		pCols, err := p.colsOf(stg.PCols)
		if err != nil {
			return fmt.Errorf("probe key: %w", err)
		}
		build, err := relationOf(stg.Build)
		if err != nil {
			return fmt.Errorf("build side: %w", err)
		}
		bw, pw := len(build.Schema()), len(p.cols)
		if build.Len() == 0 {
			p.pos = nil
			return nil
		}
		if err := inRange(stg.BCols, bw); err != nil {
			return fmt.Errorf("build key: %w", err)
		}
		buckets := make(map[uint64][]int32, build.Len())
		for i, h := range build.ColView().KeyHashes(stg.BCols, storage.Par{}) {
			buckets[h] = append(buckets[h], int32(i))
		}
		ph := p.rel.ColView().KeyHashes(pCols, storage.Par{})
		rows, bRows := p.rel.Rows(), build.Rows()
		var out []algebra.Tuple
		var ord []int32
		for _, i := range p.pos {
			pt := rows[i]
			for _, bi := range buckets[ph[i]] {
				bt := bRows[bi]
				if !algebra.EqualOn(pt, pCols, bt, stg.BCols) {
					continue // hash collision across distinct keys
				}
				row := make(algebra.Tuple, bw+pw)
				bSide, pSide := row[:bw], row[bw:]
				if !stg.BuildIsLeft {
					pSide, bSide = row[:pw], row[pw:]
				}
				copy(bSide, bt)
				for k, c := range p.cols {
					pSide[k] = pt[c]
				}
				out = append(out, row)
				ord = append(ord, p.ord[i])
			}
		}
		p.rel = storage.NewRelation(make(algebra.Schema, bw+pw))
		p.rel.ReplaceRows(out)
		p.ord, p.pos, p.cols = ord, seq[int32](len(out)), seq[int](bw+pw)
		if stg.HasResidual {
			return p.filter(stg.Residual)
		}
		return nil
	}
	return fmt.Errorf("unknown stage kind %d", stg.Kind)
}

// filter narrows the selection to rows passing a predicate compiled against
// the pipeline columns, evaluated by the engine's selection kernel over the
// relation. Negative indexes are literal operands, as in BoundPred.
func (p *pipe) filter(pred []algebra.BoundCmp) error {
	cs := make([]algebra.BoundCmp, len(pred))
	for i, c := range pred {
		if c.LArith != nil || c.RArith != nil {
			return fmt.Errorf("arithmetic predicates are not part of the wire format")
		}
		for _, idx := range []*int{&c.LIdx, &c.RIdx} {
			if *idx < 0 {
				continue
			}
			if *idx >= len(p.cols) {
				return fmt.Errorf("predicate index %d out of range for width %d", *idx, len(p.cols))
			}
			*idx = p.cols[*idx]
		}
		cs[i] = c
	}
	bm := exec.SelectBound(p.rel, algebra.NewBoundPred(cs), storage.Par{})
	keep := p.pos[:0]
	for _, i := range p.pos {
		if bm.Get(int(i)) {
			keep = append(keep, i)
		}
	}
	p.pos = keep
	return nil
}

// colsOf maps pipeline columns to relation columns, refusing indexes
// outside the pipeline width (negative ones are reachable from the wire).
func (p *pipe) colsOf(cols []int) ([]int, error) {
	if err := inRange(cols, len(p.cols)); err != nil {
		return nil, err
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = p.cols[c]
	}
	return out, nil
}

// emit gathers the selected rows in pipeline columns, sharing the relation's
// tuples when the columns are the relation's own.
func (p *pipe) emit() ([]algebra.Tuple, []int32) {
	rows := p.rel.Rows()
	whole := len(p.cols) == len(p.rel.Schema())
	for j, c := range p.cols {
		whole = whole && c == j
	}
	out := make([]algebra.Tuple, len(p.pos))
	ord := make([]int32, len(p.pos))
	for k, i := range p.pos {
		ord[k] = p.ord[i]
		if whole {
			out[k] = rows[i]
			continue
		}
		t := make(algebra.Tuple, len(p.cols))
		for j, c := range p.cols {
			t[j] = rows[i][c]
		}
		out[k] = t
	}
	return out, ord
}

// inRange reports the first index outside [0, width).
func inRange(cols []int, width int) error {
	for _, c := range cols {
		if c < 0 || c >= width {
			return fmt.Errorf("column %d out of range for width %d", c, width)
		}
	}
	return nil
}

// seq returns 0, 1, ..., n-1.
func seq[T int | int32](n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(i)
	}
	return out
}
