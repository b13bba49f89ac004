package exec

// Partition-parallel helpers shared by the kernels in batch.go. Output is
// byte-identical — same rows, same order — at ANY partition and worker
// count, which is what lets refresh and serving switch between sequential
// and parallel execution freely. Two partitioning disciplines are used:
//
//   - Morsel (range) partitioning for order-preserving operators (select,
//     project, the join's probe side): the input is split into contiguous
//     ranges, ranges are claimed by workers off an atomic counter, and the
//     per-range outputs are concatenated in range order — trivially
//     reproducing the sequential output.
//
//   - Hash partitioning for keyed operators (dedup, minus, aggregation):
//     rows are assigned to partitions by key hash, so all rows that can
//     interact land in the same partition and partitions proceed
//     independently; a keep mask or a fixed-order merge restores the
//     sequential result.
//
// Each operator runs sequentially below storage.ParMinRows rows or when the
// configuration is sequential; the choice changes nothing observable.

import (
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// forRanges runs body over every morsel range on par.Workers goroutines,
// ranges claimed off an atomic counter.
func forRanges(ranges [][2]int, workers int, body func(ri, lo, hi int)) {
	if workers > len(ranges) {
		workers = len(ranges)
	}
	var next atomic.Int64
	storage.RunWorkers(workers, func(int) {
		for {
			ri := int(next.Add(1)) - 1
			if ri >= len(ranges) {
				return
			}
			body(ri, ranges[ri][0], ranges[ri][1])
		}
	})
}

// concatRanges assembles per-range outputs into one relation, in range
// order.
func concatRanges(schema algebra.Schema, outs [][]algebra.Tuple) *storage.Relation {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := storage.NewRelation(schema)
	out.Reserve(total)
	for _, o := range outs {
		out.AppendAll(o)
	}
	return out
}

// projIndexes resolves the target schema's columns in the input schema
// (shared by projectTo and projectToP).
func projIndexes(in algebra.Schema, target algebra.Schema) []int {
	idx := make([]int, len(target))
	for i, c := range target {
		j := in.IndexOf(c.QName())
		if j < 0 {
			panic("exec: column " + c.QName() + " missing from " + in.String())
		}
		idx[i] = j
	}
	return idx
}

// projectToP is projectTo with morsel-parallel column movement.
func projectToP(in *storage.Relation, target algebra.Schema, par storage.Par) *storage.Relation {
	if schemaEqual(in.Schema(), target) {
		return in
	}
	par = par.Norm()
	if !par.Enabled() || in.Len() < storage.ParMinRows {
		return projectTo(in, target)
	}
	idx := projIndexes(in.Schema(), target)
	rows := in.Rows()
	ranges := storage.MorselRanges(len(rows), par.Partitions)
	outs := make([][]algebra.Tuple, len(ranges))
	forRanges(ranges, par.Workers, func(ri, lo, hi int) {
		var arena tupleArena
		acc := make([]algebra.Tuple, 0, hi-lo)
		for _, t := range rows[lo:hi] {
			row := arena.alloc(len(idx))
			for i, j := range idx {
				row[i] = t[j]
			}
			acc = append(acc, row)
		}
		outs[ri] = acc
	})
	return concatRanges(target, outs)
}

// dedupP is dedupB over the relation's hash-partition view: duplicates of a
// tuple share its partition, so each partition marks its first occurrences
// independently in a shared keep mask (disjoint indexes — no locking), and
// one ordered pass emits the survivors — the sequential walk's output at any
// partition count.
func dedupP(in *storage.Relation, par storage.Par) *storage.Relation {
	pv := in.PartView(par)
	rows := in.Rows()
	keep := make([]bool, len(rows))
	storage.ForParts(par.Partitions, par.Workers, func(p int) {
		ids := pv.Rows(p)
		seen := make(map[uint64][]algebra.Tuple, len(ids))
		for _, i := range ids {
			t := rows[i]
			h := pv.Hash(int(i))
			bucket := seen[h]
			dup := false
			for _, prev := range bucket {
				if prev.Equal(t) {
					dup = true
					break
				}
			}
			if !dup {
				seen[h] = append(bucket, t)
				keep[i] = true
			}
		}
	})
	out := storage.NewRelation(in.Schema())
	for i, t := range rows {
		if keep[i] {
			out.Append(t)
		}
	}
	return out
}

// unionAllP concatenates two compatible relations in the column order of
// the first. The output shares the input tuples, which are immutable.
func unionAllP(l, r *storage.Relation, par storage.Par) *storage.Relation {
	out := storage.NewRelation(l.Schema())
	out.Reserve(l.Len() + r.Len())
	out.AppendAll(l.Rows())
	out.AppendAll(projectToP(r, l.Schema(), par).Rows())
	return out
}
