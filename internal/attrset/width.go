package attrset

// Narrow is a Set over the first NarrowAttrs attributes: one word
// instead of Words. Kernels that run once per couple or per candidate
// use it when the whole schema fits, so a set operation costs one word.
type Narrow [1]uint64

// NarrowAttrs is the number of attributes a Narrow holds.
const NarrowAttrs = 64

// Width is the type set of the fixed-width kernels' sets: Narrow when
// every attribute is below NarrowAttrs, Set otherwise. Go allows
// indexing and len on both, so one kernel source serves the two widths,
// and each array length is compiled as its own instantiation. A kernel
// converts to Set only at its package boundary (Widen).
type Width interface{ Narrow | Set }

// Add inserts a into s. Unlike Set.Add it does not check a: an a past
// s's width panics as an array index does.
func Add[S Width](s *S, a Attr) { (*s)[a>>6] |= 1 << uint(a&63) }

// Bit returns the singleton {a} at width S.
func Bit[S Width](a Attr) S {
	var s S
	Add(&s, a)
	return s
}

// Widen returns s as a Set.
func Widen[S Width](s S) Set {
	var t Set
	for w := 0; w < len(s); w++ {
		t[w] = s[w]
	}
	return t
}
