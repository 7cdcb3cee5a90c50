package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// SnapshotReader is the one decoder of DMSNAP1 snapshot files, a
// streaming view over one: a validation pass records where each
// attribute's dictionary and code column live inside the checksummed
// frame, and Column then decodes one column at a time straight off the
// file. Recovery adopts its columns and dictionaries into a
// relation.Store; discovery can instead feed chunked agree-set
// computation from it without materialising every column — the snapshot
// stays on disk; memory holds one column (plus the schema) at a time.
//
// The open-time pass verifies the magic, the frame length against the
// file size, the CRC32C over the whole payload, and every code against
// its dictionary size. A damaged snapshot therefore fails at Open, never
// mid-computation — matching the quarantine contract (a snapshot is the
// compacted past; there is no WAL to fall back on, so damage must
// surface loudly and immediately).
//
// Column reads are independent section readers over the shared file
// handle, so concurrent column loads from pool workers are safe.
type SnapshotReader struct {
	f     *os.File
	name  string
	fp    string
	names []string
	rows  int
	base  int64 // file offset of the frame payload
	cols  []snapCol
}

// snapCol locates one attribute's encoding inside the payload.
type snapCol struct {
	dictSize uint64
	dictOff  int64 // payload-relative offset of the dictionary strings
	codesOff int64 // payload-relative offset of the uvarint code column
	codesEnd int64
}

// OpenSnapshotStream opens and validates a snapshot for streamed column
// access. The caller owns the returned reader and must Close it.
func OpenSnapshotStream(path string) (*SnapshotReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr, err := loadSnapshotStream(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: streaming snapshot %s: %w", path, err)
	}
	return sr, nil
}

func loadSnapshotStream(f *os.File) (*SnapshotReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	head := make([]byte, len(snapshotMagic)+frameHeaderLen)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, fmt.Errorf("snapshot truncated: %w", err)
	}
	if string(head[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("bad snapshot magic")
	}
	hdr := head[len(snapshotMagic):]
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	base := int64(len(snapshotMagic) + frameHeaderLen)
	if n > maxRecordBytes || base+n != fi.Size() {
		return nil, fmt.Errorf("snapshot frame length %d does not match file size %d", n, fi.Size()-base)
	}

	// One streaming pass: parse the structure while folding every chunk
	// into the running CRC, so validation never holds more than one
	// buffer of payload.
	cr := &crcScanner{r: io.NewSectionReader(f, base, n), remaining: n}
	sr := &SnapshotReader{f: f, base: base}
	sr.name, err = cr.string()
	if err != nil {
		return nil, err
	}
	nAttrs, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if nAttrs > uint64(n) {
		return nil, fmt.Errorf("implausible attribute count %d", nAttrs)
	}
	sr.names = make([]string, nAttrs)
	for i := range sr.names {
		if sr.names[i], err = cr.string(); err != nil {
			return nil, err
		}
	}
	rows, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if rows > uint64(n) {
		return nil, fmt.Errorf("implausible row count %d", rows)
	}
	sr.rows = int(rows)
	sr.cols = make([]snapCol, nAttrs)
	for a := range sr.cols {
		col := &sr.cols[a]
		if col.dictSize, err = cr.uvarint(); err != nil {
			return nil, err
		}
		if col.dictSize > uint64(n) {
			return nil, fmt.Errorf("implausible dictionary size %d", col.dictSize)
		}
		col.dictOff = cr.offset()
		for i := uint64(0); i < col.dictSize; i++ {
			if _, err := cr.string(); err != nil {
				return nil, err
			}
		}
		col.codesOff = cr.offset()
		for t := 0; t < sr.rows; t++ {
			code, err := cr.uvarint()
			if err != nil {
				return nil, err
			}
			if code >= col.dictSize {
				return nil, fmt.Errorf("code %d out of dictionary range %d", code, col.dictSize)
			}
		}
		col.codesEnd = cr.offset()
	}
	if sr.fp, err = cr.string(); err != nil {
		return nil, err
	}
	if err := cr.finish(wantCRC); err != nil {
		return nil, err
	}
	return sr, nil
}

// Name returns the dataset label stored in the snapshot.
func (sr *SnapshotReader) Name() string { return sr.name }

// Fingerprint returns the content fingerprint stored in the snapshot.
func (sr *SnapshotReader) Fingerprint() string { return sr.fp }

// Names returns the attribute names. The caller must not mutate them.
func (sr *SnapshotReader) Names() []string { return sr.names }

// Arity returns the number of attributes.
func (sr *SnapshotReader) Arity() int { return len(sr.names) }

// Rows returns the row count.
func (sr *SnapshotReader) Rows() int { return sr.rows }

// Column decodes attribute a's code column from the file: the codes per
// row plus the domain size (the dictionary cardinality). Codes are dense
// in [0, dom) by construction of the columnar encoder, so the column can
// feed partition construction directly. Each call allocates a fresh
// slice and reads through its own section reader, so concurrent calls
// are safe.
func (sr *SnapshotReader) Column(a int) ([]int, int, error) {
	if a < 0 || a >= len(sr.cols) {
		return nil, 0, fmt.Errorf("durable: column %d out of range %d", a, len(sr.cols))
	}
	col := sr.cols[a]
	br := bufio.NewReaderSize(io.NewSectionReader(sr.f, sr.base+col.codesOff, col.codesEnd-col.codesOff), 1<<16)
	codes := make([]int, sr.rows)
	for t := range codes {
		code, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("durable: reading column %d: %w", a, err)
		}
		if code >= col.dictSize {
			return nil, 0, fmt.Errorf("durable: column %d code %d out of dictionary range %d", a, code, col.dictSize)
		}
		codes[t] = int(code)
	}
	return codes, int(col.dictSize), nil
}

// DomainSize returns attribute a's dictionary size, read from the
// snapshot's header at open.
func (sr *SnapshotReader) DomainSize(a int) int { return int(sr.cols[a].dictSize) }

// DictPrefix decodes the first k values of attribute a's dictionary (the
// values of codes 0..k-1) off the file, reading no further: with
// DomainSize it makes the reader an armstrong.Source.
func (sr *SnapshotReader) DictPrefix(a, k int) ([]string, error) {
	if a < 0 || a >= len(sr.cols) {
		return nil, fmt.Errorf("durable: column %d out of range %d", a, len(sr.cols))
	}
	col := sr.cols[a]
	if k < 0 || uint64(k) > col.dictSize {
		return nil, fmt.Errorf("durable: %d values requested of dictionary %d (size %d)", k, a, col.dictSize)
	}
	cr := &crcScanner{
		r:         io.NewSectionReader(sr.f, sr.base+col.dictOff, col.codesOff-col.dictOff),
		remaining: col.codesOff - col.dictOff,
	}
	vals := make([]string, k)
	for i := range vals {
		v, err := cr.string()
		if err != nil {
			return nil, fmt.Errorf("durable: reading dictionary %d: %w", a, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// Close releases the underlying file.
func (sr *SnapshotReader) Close() error { return sr.f.Close() }

// crcScanner parses uvarints and length-prefixed strings from a reader
// in fixed-size chunks, folding each chunk into a running CRC32C as it
// is loaded — one pass both decodes the structure and verifies the
// frame checksum, without buffering the payload.
type crcScanner struct {
	r         io.Reader
	remaining int64 // unread payload bytes beyond buf
	buf       [1 << 16]byte
	len       int
	pos       int
	crc       uint32
	consumed  int64 // payload bytes before buf[0]
}

// fill loads the next chunk. At end of payload the buffer stays empty.
func (c *crcScanner) fill() error {
	c.consumed += int64(c.len)
	c.pos, c.len = 0, 0
	if c.remaining == 0 {
		return io.ErrUnexpectedEOF
	}
	n := int64(len(c.buf))
	if n > c.remaining {
		n = c.remaining
	}
	if _, err := io.ReadFull(c.r, c.buf[:n]); err != nil {
		return fmt.Errorf("snapshot payload truncated: %w", err)
	}
	c.crc = crc32.Update(c.crc, castagnoli, c.buf[:n])
	c.len = int(n)
	c.remaining -= n
	return nil
}

func (c *crcScanner) ReadByte() (byte, error) {
	if c.pos >= c.len {
		if err := c.fill(); err != nil {
			return 0, err
		}
	}
	b := c.buf[c.pos]
	c.pos++
	return b, nil
}

// offset is the payload-relative position of the next unread byte.
func (c *crcScanner) offset() int64 { return c.consumed + int64(c.pos) }

func (c *crcScanner) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, fmt.Errorf("snapshot structure truncated: %w", err)
	}
	return v, nil
}

func (c *crcScanner) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.remaining)+uint64(c.len-c.pos) {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	for i := range b {
		if b[i], err = c.ReadByte(); err != nil {
			return "", err
		}
	}
	return string(b), nil
}

// finish verifies that the structure consumed the payload exactly and
// that the accumulated CRC matches the frame header.
func (c *crcScanner) finish(want uint32) error {
	if c.remaining != 0 || c.pos != c.len {
		return fmt.Errorf("snapshot has %d trailing bytes", c.remaining+int64(c.len-c.pos))
	}
	if c.crc != want {
		return fmt.Errorf("snapshot checksum mismatch")
	}
	return nil
}
