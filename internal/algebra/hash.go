package algebra

import "math"

// Typed 64-bit hashing for values and tuples: FNV-1a over a kind tag plus the
// payload bytes, with no allocation. This is the single hashing substrate
// shared by the storage multiset maps, the hash-join/dedup/aggregation
// operators, and hash indexes — replacing ad-hoc string rendering on every
// hot path.
//
// The hash is consistent with Equal: values that compare equal hash equal.
// Because Compare places all numeric kinds (Int/Float/Date) in one class and
// compares them numerically, numeric values hash through their float64 image
// rather than their kind tag.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211

	hashTagNumeric uint64 = 0x4e
	hashTagString  uint64 = 0x53
)

// Hash returns the 64-bit hash of a single value.
func (v Value) Hash() uint64 { return v.HashInto(fnvOffset64) }

// HashInto folds the value into a running FNV-1a state (tag first, then
// payload), enabling allocation-free multi-column hashes.
func (v Value) HashInto(h uint64) uint64 {
	if v.numericKind() {
		h = (h ^ hashTagNumeric) * fnvPrime64
		f := v.AsFloat()
		if f == 0 {
			f = 0 // normalize -0.0 to +0.0: they compare equal
		}
		bits := math.Float64bits(f)
		if f != f {
			bits = 0x7ff8000000000001 // canonical NaN: all NaNs compare equal
		}
		h = (h ^ (bits & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 8 & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 16 & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 24 & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 32 & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 40 & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 48 & 0xff)) * fnvPrime64
		h = (h ^ (bits >> 56)) * fnvPrime64
		return h
	}
	h = (h ^ hashTagString) * fnvPrime64
	for i := 0; i < len(v.S); i++ {
		h = (h ^ uint64(v.S[i])) * fnvPrime64
	}
	return h
}

// Hash returns the hash of the whole tuple.
func (t Tuple) Hash() uint64 {
	h := fnvOffset64
	for _, v := range t {
		h = v.HashInto(h)
	}
	return h
}

// HashCols hashes the column subset cols, in order. The caller precomputes
// cols once per operator, so per-row hashing touches only the key columns.
func (t Tuple) HashCols(cols []int) uint64 {
	h := fnvOffset64
	for _, c := range cols {
		h = t[c].HashInto(h)
	}
	return h
}

// Equal reports column-wise equality of two tuples under Value.Equal.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// EqualOn reports equality of two tuples restricted to parallel column
// subsets: a[ac[i]] == b[bc[i]] for every i. Used to confirm hash-join
// matches on collision.
func EqualOn(a Tuple, ac []int, b Tuple, bc []int) bool {
	for i := range ac {
		if !a[ac[i]].Equal(b[bc[i]]) {
			return false
		}
	}
	return true
}
