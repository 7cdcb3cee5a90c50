// Package durable is the persistence layer of the serving stack: a
// per-dataset write-ahead log plus checksummed snapshots under a data
// directory, so registered datasets and their append history survive a
// crash — including kill -9 — with every acknowledged write intact.
//
// Layout under the data directory:
//
//	datasets/<id>/wal.log        length-framed, CRC32C-checksummed records
//	datasets/<id>/snapshot.snap  dictionary-encoded columnar snapshot
//	quarantine/<id>/             datasets recovery refused, plus REASON.json
//
// The write path is log-then-ack: a registration or append batch is
// framed, checksummed, written, and fsync'd before the server
// acknowledges it. Fsyncs are batched by group commit — while one fsync
// is in flight, subsequent writers append their frames and share the
// next one — so the cost of durability amortises under load (dataset.go).
//
// The package keeps no column data of its own: the serving layer's
// relation.Store is the one column encoding of a dataset. Each append
// hands the handle the store's latest view, and a background compactor
// encodes that view into a snapshot written to a temp file, fsync'd, and
// atomically renamed, then truncates the log, so boot replays only the
// tail (snapshot.go, store.go). Recovery decodes the snapshot through
// SnapshotReader, the one snapshot decoder, into a relation.Store and
// replays the WAL tail into it (recover.go).
//
// Recovery classifies damage conservatively (recover.go): a torn final
// record — the expected state after a crash mid-write — is truncated
// and the prefix served; anything worse (checksum failure mid-log, a
// malformed record, a fingerprint that does not match the recorded one)
// quarantines the dataset with a structured reason while the rest of the
// store boots normally.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/relation"
)

// Frame layout: u32 payload length, u32 CRC32C of the payload, payload.
const frameHeaderLen = 8

// maxRecordBytes bounds a single record; larger length fields are
// treated as corruption. It comfortably exceeds the server's request
// body cap, so no legitimate record can hit it.
const maxRecordBytes = 256 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds.
const (
	recRegister = byte(1) // schema + label + initial rows
	recAppend   = byte(2) // one acknowledged append batch
)

// record is one decoded WAL entry. RowsAfter is the dataset's total row
// count once the record is applied — replay uses it to skip records the
// snapshot already covers and to detect sequence gaps — and FP is the
// content fingerprint at that point, recorded at write time.
type record struct {
	Kind      byte
	Name      string   // register only: the dataset's label
	Names     []string // register only: schema attribute names
	RowsAfter int
	Rows      [][]string
	FP        string
}

// appendFrame appends the framed, checksummed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// payload building blocks: length-prefixed strings and uvarints.

func putUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func putString(dst []byte, s string) []byte {
	dst = putUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// payloadReader decodes record payloads with sticky error state, so the
// decoders read linearly and check once at the end.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *payloadReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("payload truncated at byte %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d overruns payload at byte %d", n, r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%d trailing bytes after record payload", len(r.buf)-r.off)
	}
	return nil
}

// encodeRegister builds the payload of a registration record: the
// label, then view's schema and rows, in the append record's row layout.
func encodeRegister(name string, view *relation.Relation, fp string) []byte {
	p := []byte{recRegister}
	p = putString(p, name)
	p = putUvarint(p, uint64(view.Arity()))
	for _, n := range view.Names() {
		p = putString(p, n)
	}
	p = putUvarint(p, uint64(view.Rows())) // rowsAfter
	p = putUvarint(p, uint64(view.Rows()))
	for t := 0; t < view.Rows(); t++ {
		p = putUvarint(p, uint64(view.Arity()))
		for a := 0; a < view.Arity(); a++ {
			p = putString(p, view.Value(t, a))
		}
	}
	return putString(p, fp)
}

// encodeAppend builds the payload of an append record.
func encodeAppend(rowsAfter int, rows [][]string, fp string) []byte {
	p := []byte{recAppend}
	p = encodeRowsTail(p, rowsAfter, rows, fp)
	return p
}

// encodeRowsTail writes the shared suffix: rowsAfter, the row batch, and
// the fingerprint after applying it.
func encodeRowsTail(p []byte, rowsAfter int, rows [][]string, fp string) []byte {
	p = putUvarint(p, uint64(rowsAfter))
	p = putUvarint(p, uint64(len(rows)))
	for _, row := range rows {
		p = putUvarint(p, uint64(len(row)))
		for _, v := range row {
			p = putString(p, v)
		}
	}
	return putString(p, fp)
}

// decodeRecord parses one payload. Structural damage returns an error —
// with the CRC already verified that means a writer bug or tampering,
// and replay quarantines rather than guesses.
func decodeRecord(payload []byte) (record, error) {
	r := &payloadReader{buf: payload}
	var rec record
	rec.Kind = r.byte()
	switch rec.Kind {
	case recRegister:
		rec.Name = r.string()
		nAttrs := r.uvarint()
		if nAttrs > uint64(len(payload)) { // coarse sanity before allocating
			return rec, fmt.Errorf("implausible attribute count %d", nAttrs)
		}
		rec.Names = make([]string, nAttrs)
		for i := range rec.Names {
			rec.Names[i] = r.string()
		}
	case recAppend:
	default:
		return rec, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	rec.RowsAfter = int(r.uvarint())
	nRows := r.uvarint()
	if nRows > uint64(len(payload)) {
		return rec, fmt.Errorf("implausible row count %d", nRows)
	}
	rec.Rows = make([][]string, nRows)
	for i := range rec.Rows {
		arity := r.uvarint()
		if arity > uint64(len(payload)) {
			return rec, fmt.Errorf("implausible arity %d", arity)
		}
		row := make([]string, arity)
		for a := range row {
			row[a] = r.string()
		}
		rec.Rows[i] = row
	}
	rec.FP = r.string()
	if err := r.done(); err != nil {
		return rec, err
	}
	if rec.RowsAfter < 0 || rec.RowsAfter > maxRecordBytes {
		return rec, fmt.Errorf("implausible rowsAfter %d", rec.RowsAfter)
	}
	return rec, nil
}

// scanWAL walks the log's frames. It returns the decoded records, the
// byte length of the valid prefix, whether a torn tail was dropped, and
// — for damage that truncation cannot explain — a quarantine reason.
//
// The classification rule: a frame that fails because the file ends
// inside it (short header, short payload, or a checksum mismatch on the
// final frame) is a torn tail — the expected aftermath of a crash
// mid-write — and the log is good up to the frame's start. A checksum
// mismatch or structural error with more log after it cannot come from a
// torn write, so the dataset is quarantined instead.
func scanWAL(data []byte) (recs []record, validLen int, torn bool, reason string) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return recs, off, true, ""
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes || off+frameHeaderLen+n > len(data) {
			// The frame claims more bytes than the file holds (or an
			// absurd length, which a torn length field can also produce):
			// treat as torn and keep the prefix.
			return recs, off, true, ""
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			if off+frameHeaderLen+n == len(data) {
				return recs, off, true, "" // torn final frame
			}
			return recs, off, false, fmt.Sprintf("checksum mismatch in record at offset %d", off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, off, false, fmt.Sprintf("malformed record at offset %d: %v", off, err)
		}
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
	return recs, off, false, ""
}
