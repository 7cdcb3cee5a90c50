package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/relation"
)

// Fingerprint is the running content hash identifying a dataset instance:
// SHA-256 over the length-framed schema names followed by every row's
// fields, in order. Length framing keeps ["ab","c"] distinct from
// ["a","bc"]. The serving registry maintains one per dataset (the result
// cache keys on it), the WAL records its value after every durable batch,
// and boot recovery recomputes it from the replayed content — the two
// must match or the dataset is quarantined, which is what rules out a
// silently wrong recovery.
type Fingerprint struct {
	h hash.Hash
}

// NewFingerprint starts the running hash of a dataset with the given
// schema, before any rows.
func NewFingerprint(names []string) *Fingerprint {
	f := &Fingerprint{h: sha256.New()}
	for _, n := range names {
		f.field(n)
	}
	return f
}

func (f *Fingerprint) field(s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	f.h.Write(n[:])
	f.h.Write([]byte(s))
}

// AddRow commits one row into the running hash.
func (f *Fingerprint) AddRow(row []string) {
	for _, v := range row {
		f.field(v)
	}
}

// Sum returns the current fingerprint as lowercase hex. It does not
// consume the state; more rows can be added after.
func (f *Fingerprint) Sum() string {
	return hex.EncodeToString(f.h.Sum(nil))
}

// FingerprintOf starts the running hash of r: its schema, then every row
// in order. Recovery compares its Sum against the value recorded at write
// time, and the serving layer keeps adding appended rows to it.
func FingerprintOf(r *relation.Relation) *Fingerprint {
	f := NewFingerprint(r.Names())
	for t := 0; t < r.Rows(); t++ {
		for a := 0; a < r.Arity(); a++ {
			f.field(r.Value(t, a))
		}
	}
	return f
}
