// Package attrset implements fixed-capacity attribute sets as bit vectors.
//
// The Dep-Miner paper notes that "attribute sets are implemented as bit
// vectors to provide set operations in constant time"; this package is the
// Go equivalent. A Set is a comparable value type ([Words]uint64), so it can
// be used directly as a map key without any encoding step, which the
// agree-set deduplication and the levelwise transversal search both rely on.
//
// The capacity is MaxAttrs (256) attributes, indexed 0..MaxAttrs-1. Callers
// that load external data must validate schema width with Valid or rely on
// relation loading, which rejects wider schemas. FD discovery is
// exponential in the number of attributes, so 256 is far beyond what any
// discovery run can process; the fixed width buys zero-allocation set
// algebra in the hot loops.
package attrset

import (
	"math/bits"
	"strings"
)

// Words is the number of 64-bit words backing a Set.
const Words = 4

// MaxAttrs is the largest number of attributes a Set can hold.
const MaxAttrs = Words * 64

// Attr identifies an attribute by its column index in the relation schema.
type Attr = int

// Set is a set of attribute indices in [0, MaxAttrs). The zero value is the
// empty set. Set is a small value type: pass it by value, compare it with
// ==, and use it as a map key.
type Set [Words]uint64

// Empty returns the empty set. It exists for readability; Set{} is
// equivalent.
func Empty() Set { return Set{} }

// New returns the set containing the given attributes. It panics if any
// attribute is outside [0, MaxAttrs), mirroring slice index panics: attribute
// indices are internal values produced by this module's callers, so an
// out-of-range index is a programming error, not an input error.
func New(attrs ...Attr) Set {
	var s Set
	for _, a := range attrs {
		s.Add(a)
	}
	return s
}

// Single returns the singleton {a}.
func Single(a Attr) Set {
	var s Set
	s.Add(a)
	return s
}

// Universe returns the set {0, 1, ..., n-1}, i.e. the full schema R of a
// relation with n attributes. It panics if n is negative or exceeds
// MaxAttrs.
func Universe(n int) Set {
	if n < 0 || n > MaxAttrs {
		panic("attrset: Universe size out of range")
	}
	var s Set
	for w := 0; n > 0; w++ {
		if n >= 64 {
			s[w] = ^uint64(0)
			n -= 64
		} else {
			s[w] = (uint64(1) << uint(n)) - 1
			n = 0
		}
	}
	return s
}

// Add inserts attribute a into the set.
func (s *Set) Add(a Attr) {
	if a < 0 || a >= MaxAttrs {
		panic("attrset: attribute index out of range")
	}
	s[a>>6] |= 1 << uint(a&63)
}

// Remove deletes attribute a from the set.
func (s *Set) Remove(a Attr) {
	if a < 0 || a >= MaxAttrs {
		panic("attrset: attribute index out of range")
	}
	s[a>>6] &^= 1 << uint(a&63)
}

// Contains reports whether attribute a is in the set.
func (s Set) Contains(a Attr) bool {
	if a < 0 || a >= MaxAttrs {
		return false
	}
	return s[a>>6]&(1<<uint(a&63)) != 0
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	return s == Set{}
}

// Len returns the number of attributes in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	var u Set
	for i := range s {
		u[i] = s[i] | t[i]
	}
	return u
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var u Set
	for i := range s {
		u[i] = s[i] & t[i]
	}
	return u
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	var u Set
	for i := range s {
		u[i] = s[i] &^ t[i]
	}
	return u
}

// Complement returns universe \ s, where universe = {0..n-1}.
func (s Set) Complement(n int) Set {
	return Universe(n).Diff(s)
}

// With returns s ∪ {a} without modifying s.
func (s Set) With(a Attr) Set {
	s.Add(a)
	return s
}

// Without returns s \ {a} without modifying s.
func (s Set) Without(a Attr) Set {
	s.Remove(a)
	return s
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊂ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s != t && s.SubsetOf(t)
}

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set) Intersects(t Set) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Attrs returns the attributes of the set in increasing order.
func (s Set) Attrs() []Attr {
	out := make([]Attr, 0, s.Len())
	s.ForEach(func(a Attr) {
		out = append(out, a)
	})
	return out
}

// ForEach calls fn for each attribute of the set in increasing order.
func (s Set) ForEach(fn func(Attr)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			a := base + bits.TrailingZeros64(w)
			fn(a)
			w &= w - 1
		}
	}
}

// Min returns the smallest attribute in the set, or -1 if the set is empty.
func (s Set) Min() Attr {
	for wi, w := range s {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest attribute in the set, or -1 if the set is empty.
func (s Set) Max() Attr {
	for wi := Words - 1; wi >= 0; wi-- {
		if w := s[wi]; w != 0 {
			return wi<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Next returns the smallest attribute in the set that is strictly greater
// than a, or -1 if there is none. Passing a = -1 yields Min.
func (s Set) Next(a Attr) Attr {
	a++
	if a < 0 {
		a = 0
	}
	if a >= MaxAttrs {
		return -1
	}
	wi := a >> 6
	w := s[wi] >> uint(a&63) << uint(a&63) // clear bits below a
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= Words {
			return -1
		}
		w = s[wi]
	}
}

// Compare orders sets first by cardinality, then lexicographically by the
// bit pattern (lowest attribute index most significant). It returns -1, 0,
// or +1. This is the canonical deterministic order used when emitting FDs
// and hypergraph edges, so output is reproducible across runs.
func (s Set) Compare(t Set) int {
	if c, d := s.Len(), t.Len(); c != d {
		if c < d {
			return -1
		}
		return 1
	}
	return s.CompareLex(t)
}

// CompareLex orders sets lexicographically by element sequence: the set
// whose first differing attribute is smaller sorts first. Examples (letters
// for indices): A < AB < ABC < AC < B.
func (s Set) CompareLex(t Set) int {
	if s == t {
		return 0
	}
	// Compare the sorted element sequences. The divergence point is the
	// minimum m of the symmetric difference. If the set not containing m
	// has no element past m, it is a proper prefix of the other and sorts
	// first; otherwise the set containing m sorts first (its element at
	// the divergence position is smaller).
	for i := range s {
		d := s[i] ^ t[i]
		if d == 0 {
			continue
		}
		m := i<<6 + bits.TrailingZeros64(d)
		if s.Contains(m) {
			if m > t.Max() { // t is a proper prefix of s
				return 1
			}
			return -1
		}
		if m > s.Max() { // s is a proper prefix of t
			return -1
		}
		return 1
	}
	return 0
}

// String renders the set using uppercase letters A..Z for indices 0..25,
// matching the paper's notation for small schemas ("BDE"), and "·attr"
// plus the 0-based index beyond: {0, 25, 26, 27} renders as
// "AZ·attr26·attr27". The empty set renders as "∅".
func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	var b strings.Builder
	s.ForEach(func(a Attr) {
		if a < 26 {
			b.WriteByte(byte('A' + a))
		} else {
			b.WriteString("·attr")
			for _, d := range itoa(a) {
				b.WriteByte(d)
			}
		}
	})
	return b.String()
}

// Names renders the set using the provided attribute names, joined by sep.
func (s Set) Names(names []string, sep string) string {
	var b strings.Builder
	first := true
	s.ForEach(func(a Attr) {
		if !first {
			b.WriteString(sep)
		}
		first = false
		if a < len(names) {
			b.WriteString(names[a])
		} else {
			b.WriteString("attr")
			for _, d := range itoa(a) {
				b.WriteByte(d)
			}
		}
	})
	return b.String()
}

func itoa(n int) []byte {
	if n == 0 {
		return []byte{'0'}
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return buf[i:]
}

// Valid reports whether n attributes fit in a Set.
func Valid(n int) bool { return n >= 0 && n <= MaxAttrs }

// Parse parses the letter notation produced by String for schemas of at
// most 26 attributes: "BDE" → {1,3,4}. It ignores case and returns the
// empty set for "" or "∅". Characters outside A..Z/a..z are rejected.
func Parse(s string) (Set, bool) {
	var out Set
	if s == "" || s == "∅" {
		return out, true
	}
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out.Add(int(r - 'A'))
		case r >= 'a' && r <= 'z':
			out.Add(int(r - 'a'))
		default:
			return Set{}, false
		}
	}
	return out, true
}
