package durable

import "repro/internal/relation"

// snapshotMagic leads the snapshot file, before the standard frame, so a
// WAL accidentally dropped in its place fails fast.
var snapshotMagic = []byte("DMSNAP1\n")

// encodeSnapshot serialises a dataset's full state from view, the latest
// view of the serving layer's column store: label, schema, per-attribute
// dictionaries, uvarint-packed code columns, the row count, and the
// content fingerprint — all inside one checksummed frame. SnapshotReader
// is its one decoder.
func encodeSnapshot(name string, view *relation.Relation, fp string) []byte {
	names := view.Names()
	p := putString(nil, name)
	p = putUvarint(p, uint64(len(names)))
	for _, n := range names {
		p = putString(p, n)
	}
	p = putUvarint(p, uint64(view.Rows()))
	for a := range names {
		col, dom, _ := view.Column(a) // a Relation's column never fails
		dict, _ := view.DictPrefix(a, dom)
		p = putUvarint(p, uint64(dom))
		for _, v := range dict {
			p = putString(p, v)
		}
		for _, code := range col {
			p = putUvarint(p, uint64(code))
		}
	}
	p = putString(p, fp)
	out := append([]byte(nil), snapshotMagic...)
	return appendFrame(out, p)
}
