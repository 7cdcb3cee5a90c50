// Package armstrong builds Armstrong relations from maximal sets
// (paper §4).
//
// An Armstrong relation for a dependency set F satisfies exactly the
// dependencies implied by F: by Beeri–Dowd–Fagin–Statman, r is Armstrong
// for F iff GEN(F) ⊆ ag(r) ⊆ CL(F), and GEN(F) = MAX(F) (Mannila–Räihä).
// Two constructions are provided:
//
//   - Synthetic (eq. 1): the classical integer construction. One tuple t0
//     of zeroes for X0 = R, then for each Xi ∈ MAX(dep(r)) a tuple with 0
//     on Xi and a tuple-unique value elsewhere.
//   - Real-world (eq. 2): same shape, but every value is drawn from the
//     initial relation's active domain π_A(r), so the sample reads like
//     real data. It exists iff each attribute has enough distinct values
//     (Proposition 1): |π_A(r)| ≥ |{X ∈ MAX(dep(r)) | A ∉ X}| + 1.
//
// Both produce |MAX(dep(r))|+1 tuples — in the paper's evaluation 1/100 to
// 1/10,000 of the original relation. The real-world construction reads
// nothing of r but each attribute's domain size and the first
// |MAX(dep(r))|+1 values of its dictionary (Source), so it runs over any
// source that keeps dictionaries, not only a materialised relation.
package armstrong

import (
	"fmt"
	"strconv"

	"repro/internal/attrset"
	"repro/internal/relation"
)

// Source is what the real-world construction reads of the initial
// relation. Dictionary codes follow first-occurrence order, so
// DictPrefix(a, k) is the first k distinct values of attribute a in row
// order. *relation.Relation and the durable snapshot reader implement it.
type Source interface {
	Names() []string
	// DomainSize returns |π_A(r)|.
	DomainSize(a int) int
	// DictPrefix returns the values of codes 0..k-1 of attribute a, for
	// k ≤ DomainSize(a). The caller must not modify the slice.
	DictPrefix(a, k int) ([]string, error)
}

// ErrNotEnoughValues reports that a real-world Armstrong relation does not
// exist because some attribute's active domain is too small
// (Proposition 1).
type ErrNotEnoughValues struct {
	// Attr is the offending attribute index; Name its name.
	Attr int
	Name string
	// Have is |π_A(r)|, Need the required minimum.
	Have, Need int
}

func (e *ErrNotEnoughValues) Error() string {
	return fmt.Sprintf("armstrong: attribute %s has %d distinct values, need %d for a real-world Armstrong relation",
		e.Name, e.Have, e.Need)
}

// Synthetic builds the classical integer Armstrong relation (eq. 1) for
// the given maximal sets over a schema with the given attribute names.
// The resulting relation has len(maxSets)+1 tuples: tuple 0 is all "0"
// (for X0 = R), and tuple i has "0" on Xi and the value strconv.Itoa(i)
// elsewhere.
func Synthetic(maxSets attrset.Family, names []string) (*relation.Relation, error) {
	// Attribute A's dictionary is "0" followed by the numbers of the
	// tuples that disagree on A, the order their codes take in build.
	nums := make([]string, len(maxSets)+1)
	for i := range nums {
		nums[i] = strconv.Itoa(i)
	}
	return build(names, maxSets, func(a, k int) ([]string, error) {
		dict := append(make([]string, 0, k), nums[0])
		for i, x := range maxSets {
			if !x.Contains(a) {
				dict = append(dict, nums[i+1])
			}
		}
		return dict, nil
	})
}

// checkValues returns ErrNotEnoughValues when Proposition 1 fails: every
// attribute A must have at least |{X ∈ maxSets | A ∉ X}| + 1 distinct
// values, the number the real-world construction consumes.
func checkValues(r Source, maxSets attrset.Family) error {
	names := r.Names()
	for a := range names {
		need := 1
		for _, x := range maxSets {
			if !x.Contains(a) {
				need++
			}
		}
		if have := r.DomainSize(a); have < need {
			return &ErrNotEnoughValues{Attr: a, Name: names[a], Have: have, Need: need}
		}
	}
	return nil
}

// RealWorld builds a real-world Armstrong relation (eq. 2) for the initial
// relation r and its maximal sets MAX(dep(r)). Values are drawn from each
// attribute's active domain in first-occurrence order: v_A0 (the
// attribute's first value in r) marks agreement, and each tuple that must
// disagree on A consumes the next unused value of π_A(r).
//
// The paper indexes disagreeing values by the tuple index i (v_Ai); using
// a per-attribute counter instead consumes exactly the
// |{X | A ∉ X}| values guaranteed by Proposition 1 while preserving the
// construction's invariant — two tuples agree on A iff both carry v_A0 —
// so ag(r̄) = {Xi ∩ Xj} ∪ {Xi}, exactly as in the paper's proof sketch.
//
// It returns ErrNotEnoughValues when Proposition 1 fails, and the
// source's error when a dictionary cannot be read.
func RealWorld(r Source, maxSets attrset.Family) (*relation.Relation, error) {
	if err := checkValues(r, maxSets); err != nil {
		return nil, err
	}
	return build(r.Names(), maxSets, r.DictPrefix)
}

// build lays out both constructions as code columns: tuple 0 is all code
// 0, and the tuple of each Xi takes code 0 on Xi and A's next fresh code
// elsewhere, so every column's codes appear in first-occurrence order.
// dict(a, k) supplies the values of attribute A's k codes.
func build(names []string, maxSets attrset.Family, dict func(a, k int) ([]string, error)) (*relation.Relation, error) {
	rows := len(maxSets) + 1
	codes := make([]int, len(names)*rows)
	cols := make([][]int, len(names))
	dicts := make([][]string, len(names))
	for a := range cols {
		col := codes[a*rows : (a+1)*rows : (a+1)*rows]
		next := 1
		for i, x := range maxSets {
			if !x.Contains(a) {
				col[i+1] = next
				next++
			}
		}
		cols[a] = col
		var err error
		if dicts[a], err = dict(a, next); err != nil {
			return nil, err
		}
	}
	return relation.FromEncoded(names, cols, dicts)
}

// Size returns the number of tuples of the (real-world or synthetic)
// Armstrong relation for the given maximal sets: |MAX(dep(r))| + 1.
func Size(maxSets attrset.Family) int { return len(maxSets) + 1 }
