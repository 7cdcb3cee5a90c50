// Package extsort is the spill-to-disk external merge behind out-of-core
// agree-set computation: sorted runs of attribute sets that no longer fit
// the configured memory threshold are flushed as checksummed run files in
// a per-job temp directory, and the final deduplication becomes a
// streaming k-way merge over in-memory runs and on-disk run readers.
//
// The contract that makes spilling invisible to results: runs are sorted
// by Compare (the raw word order the agree accumulators already use), the
// merge emits each distinct set exactly once in that order, and the
// caller applies the one canonical sort at the end — exactly what the
// all-in-RAM merge does. Where a run boundary falls (and hence how much
// spills) can therefore never change the emitted family, only the I/O
// spent producing it. The differential spill suite asserts this
// byte-identity across thresholds, worker counts, and injected faults.
//
// Run file layout:
//
//	magic "DMRUN1\n", then blocks of
//	u32 payload length | u32 CRC32C(payload) | payload
//
// where each payload is a whole number of 32-byte little-endian set
// records — the same length-framed checksummed shape as the durable WAL,
// so torn or bit-flipped spill files fail loudly instead of silently
// corrupting a cover. Spill files are job-scoped scratch, not durable
// state: any damage is an I/O failure of the current run, never something
// recovery has to classify.
//
// Spilled bytes are charged into the run's guard.Budget under the
// "extsort" phase through the same pstore.ByteAccount helper the
// partition store uses, so a governed run that would flood the spill
// directory degrades into a typed partial result instead.
package extsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/pstore"
)

// SetBytes is the on-disk footprint of one attribute-set record: the
// backing words, little-endian. It is also the unit spill thresholds are
// expressed in (a threshold below one record still spills whole records).
const SetBytes = attrset.Words * 8

// runMagic leads every run file, so a foreign file dropped into the spill
// directory fails fast.
var runMagic = []byte("DMRUN1\n")

const (
	blockHeaderLen = 8
	// blockSets is the number of records per checksummed block: 8192 sets
	// = 256 KiB payloads, large enough to amortise framing and CRC, small
	// enough that readers hold one block at a time.
	blockSets     = 8192
	maxBlockBytes = blockSets * SetBytes
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Compare orders sets by their raw backing words — the run order. Zero
// iff the sets are equal, so merge dedup is exact; the order itself
// carries no meaning and never reaches callers (the final family is
// re-sorted canonically).
func Compare(a, b attrset.Set) int {
	for w := 0; w < attrset.Words; w++ {
		if a[w] != b[w] {
			if a[w] < b[w] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Stats are the spill/merge counters one computation accumulates,
// surfaced through agree.Result and core.Result.Stats up to /v1/stats.
type Stats struct {
	// RunsSpilled counts sorted runs flushed to disk.
	RunsSpilled int64
	// SpilledSets counts records across all spilled runs.
	SpilledSets int64
	// SpilledBytes is the total on-disk footprint of the spilled runs
	// (magic + block framing + records), as charged to the budget.
	SpilledBytes int64
	// MergedRuns counts the runs — in-memory and on-disk — fed into the
	// final k-way merge.
	MergedRuns int64
	// ReadBlocks counts checksummed blocks read back during the merge.
	ReadBlocks int64
}

// Add folds o's counters into s — the one place spill traffic from
// several sweeps (workers, shards, discoveries) is summed.
func (s *Stats) Add(o Stats) {
	s.RunsSpilled += o.RunsSpilled
	s.SpilledSets += o.SpilledSets
	s.SpilledBytes += o.SpilledBytes
	s.MergedRuns += o.MergedRuns
	s.ReadBlocks += o.ReadBlocks
}

// Spiller owns one computation's spill state: a lazily created temp
// directory of run files, the byte accounting against the run's budget,
// and the streaming merge that folds everything back together. Spill may
// be called concurrently from worker goroutines; Merge and Close are
// single-caller (after the workers have joined).
type Spiller struct {
	parent string
	acct   *pstore.ByteAccount

	mu       sync.Mutex
	dir      string // created on first spill
	files    []string
	memRuns  [][]attrset.Set // adopted runs small enough to stay resident
	memBytes int64
	nextID   int
	closed   bool
	stats    Stats
}

// NewSpiller creates a spiller whose run files live in a fresh temp
// directory under parent ("" = the OS temp dir), created on first use.
// Spilled bytes are charged to budget (nil = ungoverned) under the
// "extsort" phase.
func NewSpiller(parent string, budget *guard.Budget) *Spiller {
	if parent == "" {
		parent = os.TempDir()
	}
	return &Spiller{parent: parent, acct: pstore.NewByteAccount("extsort", budget)}
}

// runFileSize is the exact on-disk size of a run of n records.
func runFileSize(n int) int64 {
	blocks := (n + blockSets - 1) / blockSets
	return int64(len(runMagic)) + int64(blocks)*blockHeaderLen + int64(n)*SetBytes
}

// newRunFile allocates the next run-file path, creating the spill
// directory on first use.
func (s *Spiller) newRunFile() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		if err := os.MkdirAll(s.parent, 0o755); err != nil {
			return "", fmt.Errorf("extsort: creating spill dir: %w", err)
		}
		dir, err := os.MkdirTemp(s.parent, "depminer-spill-*")
		if err != nil {
			return "", fmt.Errorf("extsort: creating spill dir: %w", err)
		}
		s.dir = dir
	}
	id := s.nextID
	s.nextID++
	return filepath.Join(s.dir, fmt.Sprintf("run-%06d.dmr", id)), nil
}

// Spill writes one sorted deduplicated run to a new run file, charging
// its bytes to the budget first — on a budget overrun nothing is written
// and the caller's in-memory run is untouched, so the partial-result
// contract loses no sets. An empty run is a no-op.
func (s *Spiller) Spill(run []attrset.Set) error {
	if len(run) == 0 {
		return nil
	}
	if err := faultinject.Fire(faultinject.ExtsortFlush); err != nil {
		return err
	}
	size := runFileSize(len(run))
	if err := s.acct.Charge(size); err != nil {
		return err
	}
	path, err := s.newRunFile()
	if err != nil {
		return err
	}
	if err := writeRun(path, run); err != nil {
		os.Remove(path)
		return err
	}
	s.mu.Lock()
	s.files = append(s.files, path)
	s.stats.RunsSpilled++
	s.stats.SpilledSets += int64(len(run))
	s.stats.SpilledBytes += size
	s.mu.Unlock()
	s.acct.Add(size)
	s.acct.SettlePeak()
	return nil
}

// writeRun serialises a sorted run into blocks of framed, checksummed
// little-endian records.
func writeRun(path string, run []attrset.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("extsort: creating run file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	werr := func() error {
		rw := NewRunWriter(bw)
		for _, set := range run {
			if err := rw.Write(set); err != nil {
				return err
			}
		}
		if err := rw.Close(); err != nil {
			return err
		}
		return bw.Flush()
	}()
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("extsort: writing run file: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("extsort: closing run file: %w", cerr)
	}
	return nil
}

// Runs returns the number of runs registered so far — spilled run files
// plus adopted runs held in memory.
func (s *Spiller) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files) + len(s.memRuns)
}

// Stats returns a snapshot of the counters.
func (s *Spiller) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close removes the spill directory, drops adopted in-memory runs, and
// releases the resident byte accounting. Safe to call when nothing was
// ever spilled; a second Close is a no-op.
func (s *Spiller) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	dir := s.dir
	released := s.stats.SpilledBytes + s.memBytes
	s.dir, s.files, s.memRuns, s.memBytes = "", nil, nil, 0
	s.mu.Unlock()
	if released > 0 {
		s.acct.Release(released)
	}
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// runReader streams one DMRUN1 byte stream — a spill file or an adopted
// network stream — block by block, verifying each block's checksum,
// holding one decoded block at a time.
type runReader struct {
	src        io.Closer // closed by close(); nil when the caller owns the stream
	br         *bufio.Reader
	buf        []attrset.Set
	idx        int
	payload    []byte
	readBlocks int64
}

// newRunReader wraps any reader positioned at the start of a run stream,
// consuming and verifying the magic. name labels errors.
func newRunReader(src io.Reader, name string) (*runReader, error) {
	r := &runReader{br: bufio.NewReaderSize(src, 1<<16)}
	magic := make([]byte, len(runMagic))
	if _, err := io.ReadFull(r.br, magic); err != nil || string(magic) != string(runMagic) {
		return nil, fmt.Errorf("extsort: %s: bad run magic", name)
	}
	return r, nil
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: opening run file: %w", err)
	}
	r, err := newRunReader(f, filepath.Base(path))
	if err != nil {
		f.Close()
		return nil, err
	}
	r.src = f
	return r, nil
}

// next returns the reader's next record. ok is false at a clean end of
// file; anything else — torn block, checksum mismatch, misaligned
// payload — is an error.
func (r *runReader) next() (set attrset.Set, ok bool, err error) {
	if r.idx >= len(r.buf) {
		if err := r.fill(); err != nil {
			return set, false, err
		}
		if len(r.buf) == 0 {
			return set, false, nil
		}
	}
	set = r.buf[r.idx]
	r.idx++
	return set, true, nil
}

func (r *runReader) fill() error {
	r.buf, r.idx = r.buf[:0], 0
	var hdr [blockHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil // clean end: the previous block was the last
		}
		return fmt.Errorf("extsort: torn run block header: %w", err)
	}
	if err := faultinject.Fire(faultinject.ExtsortRead); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n == 0 || n > maxBlockBytes || n%SetBytes != 0 {
		return fmt.Errorf("extsort: implausible run block length %d", n)
	}
	if cap(r.payload) < n {
		r.payload = make([]byte, n)
	}
	payload := r.payload[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return fmt.Errorf("extsort: torn run block payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return fmt.Errorf("extsort: run block checksum mismatch")
	}
	r.readBlocks++
	if cap(r.buf) < n/SetBytes {
		r.buf = make([]attrset.Set, 0, n/SetBytes)
	}
	for off := 0; off < n; off += SetBytes {
		var set attrset.Set
		for w := 0; w < attrset.Words; w++ {
			set[w] = binary.LittleEndian.Uint64(payload[off+w*8:])
		}
		r.buf = append(r.buf, set)
	}
	return nil
}

func (r *runReader) close() {
	if r.src != nil {
		r.src.Close()
	}
}

// cursor is one merge input: either an in-memory sorted run or an
// on-disk run reader, holding its current front record.
type cursor struct {
	mem []attrset.Set
	idx int
	rd  *runReader
	val attrset.Set
}

// advance loads the cursor's next record, reporting exhaustion.
func (c *cursor) advance() (bool, error) {
	if c.rd != nil {
		v, ok, err := c.rd.next()
		if err != nil || !ok {
			return false, err
		}
		c.val = v
		return true, nil
	}
	if c.idx >= len(c.mem) {
		return false, nil
	}
	c.val = c.mem[c.idx]
	c.idx++
	return true, nil
}

// Merge streams the union of the in-memory runs and every spilled run
// through emit, each distinct set exactly once, in Compare order — the
// k-way external merge. All inputs must be sorted by Compare and
// deduplicated (equal records across runs are fine; they collapse).
// Merge is single-shot: it consumes the disk runs.
func (s *Spiller) Merge(inMem [][]attrset.Set, emit func(attrset.Set) error) error {
	if err := faultinject.Fire(faultinject.ExtsortMerge); err != nil {
		return err
	}
	s.mu.Lock()
	files := append([]string(nil), s.files...)
	memRuns := append([][]attrset.Set(nil), s.memRuns...)
	s.mu.Unlock()

	cursors := make([]*cursor, 0, len(files)+len(memRuns)+len(inMem))
	readers := make([]*runReader, 0, len(files))
	defer func() {
		var blocks int64
		for _, r := range readers {
			blocks += r.readBlocks
			r.close()
		}
		s.mu.Lock()
		s.stats.ReadBlocks += blocks
		s.stats.MergedRuns += int64(len(cursors))
		s.mu.Unlock()
	}()
	for _, path := range files {
		r, err := openRun(path)
		if err != nil {
			return err
		}
		readers = append(readers, r)
		cursors = append(cursors, &cursor{rd: r})
	}
	for _, run := range memRuns {
		if len(run) > 0 {
			cursors = append(cursors, &cursor{mem: run})
		}
	}
	for _, run := range inMem {
		if len(run) > 0 {
			cursors = append(cursors, &cursor{mem: run})
		}
	}

	// Min-heap of cursors keyed by their front record.
	heap := cursors[:0:len(cursors)]
	for _, c := range cursors {
		ok, err := c.advance()
		if err != nil {
			return err
		}
		if ok {
			heap = append(heap, c)
			up(heap, len(heap)-1)
		}
	}
	var last attrset.Set
	have := false
	for len(heap) > 0 {
		c := heap[0]
		v := c.val
		ok, err := c.advance()
		if err != nil {
			return err
		}
		if ok {
			down(heap, 0)
		} else {
			n := len(heap) - 1
			heap[0] = heap[n]
			heap = heap[:n]
			if n > 0 {
				down(heap, 0)
			}
		}
		if have && Compare(v, last) == 0 {
			continue
		}
		if err := emit(v); err != nil {
			return err
		}
		last, have = v, true
	}
	return nil
}

// up and down are the standard binary-heap sifts over cursor fronts.
func up(h []*cursor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if Compare(h[i].val, h[p].val) >= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func down(h []*cursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && Compare(h[l].val, h[m].val) < 0 {
			m = l
		}
		if r < len(h) && Compare(h[r].val, h[m].val) < 0 {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
