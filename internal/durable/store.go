package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// Options configures a Store. Zero values get production-safe defaults,
// except Dir, which is required.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// DisableFsync acknowledges writes without waiting for fsync. Only
	// for tests and benchmarks — a crash can then lose acknowledged
	// appends (but never corrupt the recovered prefix).
	DisableFsync bool
	// SnapshotEvery is the number of WAL append records after which the
	// background compactor folds the log into a snapshot. Default 256;
	// negative disables compaction.
	SnapshotEvery int
}

// Stats are the store's cumulative counters, served under /v1/stats.
type Stats struct {
	Datasets      int   // live durable datasets
	AppendRecords int64 // append batches logged
	Syncs         int64 // fsyncs issued by group-commit leaders
	// BatchedRecords counts append records made durable without their
	// own fsync — covered by another record's group commit or folded
	// into a snapshot. AppendRecords ≈ Syncs + BatchedRecords under
	// load; the gap is what group commit saved.
	BatchedRecords  int64
	Snapshots       int64 // snapshots written by the compactor
	CompactErrors   int64 // failed compactions (WAL kept, retried later)
	WALBytes        int64 // bytes currently in WALs (drops at compaction)
	Recovered       int   // datasets rebuilt from disk at Open
	ReplayedRecords int64 // WAL records applied during recovery
	TruncatedTails  int64 // torn final records dropped during recovery
	Quarantined     int   // datasets refused at recovery and set aside
	DroppedEmpty    int   // unacknowledged empty dataset dirs removed
	Broken          int   // live datasets with a sticky durability error
}

// Store owns the data directory: every dataset's WAL and snapshot, the
// background compactor, and the recovery performed at Open.
type Store struct {
	dir           string
	fsync         bool
	snapshotEvery int

	mu       sync.Mutex
	datasets map[string]*Dataset
	closed   bool
	stats    Stats

	compactCh chan *Dataset
	wg        sync.WaitGroup
}

// RecoveredDataset is one dataset rebuilt from disk, handed to the
// serving layer to re-register. Store holds its rows; the serving layer
// adopts it, and the durable handle keeps only a view of it.
type RecoveredDataset struct {
	ID          string
	Name        string
	Store       *relation.Store
	Fingerprint string
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// TornTail reports that a torn final record was dropped — the
	// expected state after a crash mid-write.
	TornTail bool
}

// Quarantined is one dataset recovery refused, moved aside with a
// structured reason so the server boots without it.
type Quarantined struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
	Path   string `json:"path"`
}

// Recovery is the outcome of Open's boot scan.
type Recovery struct {
	Datasets    []RecoveredDataset
	Quarantined []Quarantined
}

// Open opens (creating if needed) the store at opts.Dir and recovers
// every dataset found there: snapshot first, then the WAL tail, torn
// tails truncated, fingerprints verified, damage quarantined. The error
// is non-nil only for store-level I/O failures; per-dataset damage is
// reported in the Recovery, never by refusing to start.
func Open(opts Options) (*Store, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("durable: Dir is required")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 256
	}
	s := &Store{
		dir:           opts.Dir,
		fsync:         !opts.DisableFsync,
		snapshotEvery: opts.SnapshotEvery,
		datasets:      make(map[string]*Dataset),
		compactCh:     make(chan *Dataset, 64),
	}
	for _, sub := range []string{s.datasetsDir(), s.quarantineDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
	}
	rec, err := s.recoverAll()
	if err != nil {
		return nil, nil, err
	}
	s.wg.Add(1)
	go s.compactor()
	// Datasets that recovered with a long tail are compacted promptly.
	s.mu.Lock()
	for _, d := range s.datasets {
		if s.snapshotEvery > 0 && d.tail >= s.snapshotEvery {
			select {
			case s.compactCh <- d:
			default:
			}
		}
	}
	s.mu.Unlock()
	return s, rec, nil
}

func (s *Store) datasetsDir() string   { return filepath.Join(s.dir, "datasets") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// compactor drains the compaction queue until Close.
func (s *Store) compactor() {
	defer s.wg.Done()
	for d := range s.compactCh {
		// Errors are counted inside compact; the WAL stays authoritative.
		_ = d.compact()
	}
}

// queueCompact schedules d for background compaction; a full queue drops
// the request (the next append past the threshold re-queues it).
func (s *Store) queueCompact(d *Dataset) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	select {
	case s.compactCh <- d:
	default:
	}
}

// Create durably registers a dataset: its directory is created and the
// registration record (label, view's schema and rows, fingerprint) is
// written and fsync'd before Create returns. The returned handle serves
// all later appends.
func (s *Store) Create(id, name string, view *relation.Relation, fp string) (*Dataset, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("durable: store closed")
	}
	if _, ok := s.datasets[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("durable: dataset %s already exists", id)
	}
	s.mu.Unlock()

	dir := filepath.Join(s.datasetsDir(), id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	frame := appendFrame(nil, encodeRegister(name, view, fp))
	walPath := filepath.Join(dir, "wal.log")
	err := faultinject.Fire(faultinject.DurableWrite)
	var wal *os.File
	if err == nil {
		wal, err = os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	}
	if err == nil {
		_, err = wal.Write(frame)
	}
	if err == nil && s.fsync {
		if err = faultinject.Fire(faultinject.DurableFsync); err == nil {
			err = wal.Sync()
		}
	}
	if err == nil && s.fsync {
		err = syncDir(dir)
	}
	if err == nil && s.fsync {
		err = syncDir(s.datasetsDir())
	}
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		os.RemoveAll(dir)
		return nil, fmt.Errorf("durable: registering %s: %w", id, err)
	}

	d := &Dataset{
		id:      id,
		dir:     dir,
		store:   s,
		wal:     wal,
		view:    view,
		name:    name,
		fp:      fp,
		walSize: int64(len(frame)),
	}
	d.sy.init()
	d.sy.written = Token(len(frame))
	d.sy.synced = Token(len(frame))

	s.mu.Lock()
	s.datasets[id] = d
	s.stats.Datasets = len(s.datasets)
	s.stats.WALBytes += int64(len(frame))
	s.mu.Unlock()
	return d, nil
}

// Dataset returns the live durable handle for id, if present.
func (s *Store) Dataset(id string) (*Dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	return d, ok
}

// CompactAll snapshots every dataset with WAL tail records — the final
// fold a draining server performs so the next boot replays nothing.
func (s *Store) CompactAll() error {
	s.mu.Lock()
	ds := make([]*Dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	var firstErr error
	for _, d := range ds {
		if err := d.compact(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close stops the compactor and releases every WAL handle. It does not
// compact; call CompactAll first for a clean fold.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.compactCh)
	s.wg.Wait()
	s.mu.Lock()
	ds := make([]*Dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	var firstErr error
	for _, d := range ds {
		if err := d.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	broken := 0
	ds := make([]*Dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		if d.broken() {
			broken++
		}
	}
	st.Broken = broken
	return st
}

// Counter hooks called from the dataset handles.

func (s *Store) noteAppend(frameBytes int64) {
	s.mu.Lock()
	s.stats.AppendRecords++
	s.stats.WALBytes += frameBytes
	s.mu.Unlock()
}

func (s *Store) noteSync(coveredRecords int64) {
	s.mu.Lock()
	s.stats.Syncs++
	if coveredRecords > 1 {
		s.stats.BatchedRecords += coveredRecords - 1
	}
	s.mu.Unlock()
}

func (s *Store) noteSnapshot(snapshotBytes, reclaimedWAL int64) {
	s.mu.Lock()
	s.stats.Snapshots++
	s.stats.WALBytes -= reclaimedWAL
	if s.stats.WALBytes < 0 {
		s.stats.WALBytes = 0
	}
	s.mu.Unlock()
}

func (s *Store) noteCompactError() {
	s.mu.Lock()
	s.stats.CompactErrors++
	s.mu.Unlock()
}

// noteSnapshotBatched counts records released by a snapshot instead of a
// leader fsync.
func (s *Store) noteSnapshotBatched(records int64) {
	s.mu.Lock()
	s.stats.BatchedRecords += records
	s.mu.Unlock()
}
