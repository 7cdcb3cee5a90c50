package attrset

import "slices"

// Family is an ordered collection of attribute sets with helpers for the
// Max⊆ / Min⊆ operators the paper uses (maximal equivalence classes,
// maximal agree sets per attribute, minimal transversals).
type Family []Set

// Sort orders the family canonically (by cardinality, then lexicographic).
func (f Family) Sort() {
	slices.SortFunc(f, Set.Compare)
}

// Dedup returns f with duplicate sets removed. Order of first occurrences
// is preserved; the receiver is not modified.
func (f Family) Dedup() Family {
	seen := make(map[Set]struct{}, len(f))
	out := make(Family, 0, len(f))
	for _, s := range f {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// Contains reports whether the family contains exactly the set s.
func (f Family) Contains(s Set) bool {
	for _, x := range f {
		if x == s {
			return true
		}
	}
	return false
}

// Equal reports whether f and g contain the same sets, ignoring order and
// duplicates.
func (f Family) Equal(g Family) bool {
	fs := make(map[Set]struct{}, len(f))
	for _, s := range f {
		fs[s] = struct{}{}
	}
	gs := make(map[Set]struct{}, len(g))
	for _, s := range g {
		gs[s] = struct{}{}
	}
	if len(fs) != len(gs) {
		return false
	}
	for s := range fs {
		if _, ok := gs[s]; !ok {
			return false
		}
	}
	return true
}

// Maximal returns the ⊆-maximal sets of f: every set of f that is not a
// proper subset of another set of f. Duplicates collapse to one copy. This
// is the paper's Max⊆ operator. The result is in canonical order.
//
// The implementation sorts by descending cardinality so each candidate only
// needs comparing against already-accepted (larger or equal) sets.
func (f Family) Maximal() Family {
	in := f.Dedup()
	slices.SortFunc(in, func(a, b Set) int { return b.Compare(a) })
	out := make(Family, 0, len(in))
	for _, s := range in {
		dominated := false
		for _, m := range out {
			if s.ProperSubsetOf(m) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	out.Sort()
	return out
}

// Minimal returns the ⊆-minimal sets of f (the Min⊆ operator), the dual of
// Maximal. The result is in canonical order.
func (f Family) Minimal() Family {
	in := f.Dedup()
	slices.SortFunc(in, Set.Compare)
	out := make(Family, 0, len(in))
	for _, s := range in {
		dominates := false
		for _, m := range out {
			if m.ProperSubsetOf(s) {
				dominates = true
				break
			}
		}
		if !dominates {
			out = append(out, s)
		}
	}
	out.Sort()
	return out
}

// Clone returns a copy of the family (sets are values; only the slice is
// duplicated).
func (f Family) Clone() Family {
	out := make(Family, len(f))
	copy(out, f)
	return out
}

// Strings renders each set with Set.String, in family order.
func (f Family) Strings() []string {
	out := make([]string, len(f))
	for i, s := range f {
		out[i] = s.String()
	}
	return out
}
