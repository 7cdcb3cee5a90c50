package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// recoverAll scans the datasets directory and rebuilds every dataset.
// Per-dataset damage never aborts the boot: torn tails are truncated,
// anything worse is quarantined, and the healthy rest is served.
func (s *Store) recoverAll() (*Recovery, error) {
	entries, err := os.ReadDir(s.datasetsDir())
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids) // deterministic registry order after recovery
	rec := &Recovery{}
	for _, id := range ids {
		dir := filepath.Join(s.datasetsDir(), id)
		d, rd, reason, rerr := s.recoverOne(id, dir)
		if rerr != nil {
			return nil, rerr
		}
		switch {
		case reason == reasonEmpty:
			// Nothing acknowledged ever reached this directory (a crash
			// before the registration record was durable): remove it
			// rather than quarantine noise.
			os.RemoveAll(dir)
			s.stats.DroppedEmpty++
		case reason != "":
			q, qerr := s.quarantine(id, dir, reason)
			if qerr != nil {
				return nil, qerr
			}
			rec.Quarantined = append(rec.Quarantined, q)
			s.stats.Quarantined++
		default:
			s.datasets[id] = d
			s.stats.Datasets = len(s.datasets)
			s.stats.Recovered++
			s.stats.ReplayedRecords += int64(rd.Replayed)
			s.stats.WALBytes += d.walSize
			if rd.TornTail {
				s.stats.TruncatedTails++
			}
			rec.Datasets = append(rec.Datasets, *rd)
		}
	}
	return rec, nil
}

// reasonEmpty marks a dataset directory holding no committed record at
// all — dropped, not quarantined.
const reasonEmpty = "\x00empty"

// recoverOne rebuilds one dataset from its directory. It returns either
// a live handle plus its recovery report, or a quarantine reason. The
// error is reserved for I/O failures that should abort the boot.
func (s *Store) recoverOne(id, dir string) (*Dataset, *RecoveredDataset, string, error) {
	if err := faultinject.Fire(faultinject.DurableReplay); err != nil {
		return nil, nil, fmt.Sprintf("replay fault: %v", err), nil
	}

	var (
		st      *relation.Store
		name    string
		lastFP  string
		applied int
	)
	// The snapshot goes through the one decoder, which verifies its
	// checksum, structure and code ranges; the store adopts its columns
	// and full dictionaries and refuses a repeated dictionary value.
	snapPath := filepath.Join(dir, "snapshot.snap")
	if f, err := os.Open(snapPath); err == nil {
		sr, serr := loadSnapshotStream(f)
		if serr == nil {
			name, lastFP = sr.Name(), sr.Fingerprint()
			st, serr = relation.StoreOf(sr)
		}
		f.Close()
		if serr != nil {
			return nil, nil, fmt.Sprintf("snapshot: %v", serr), nil
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, "", fmt.Errorf("durable: reading %s: %w", snapPath, err)
	}
	// A leftover snapshot.tmp is an interrupted compaction; the WAL is
	// still authoritative, so just drop it.
	os.Remove(filepath.Join(dir, "snapshot.tmp"))

	walPath := filepath.Join(dir, "wal.log")
	walData, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, "", fmt.Errorf("durable: reading %s: %w", walPath, err)
	}
	recs, validLen, torn, reason := scanWAL(walData)
	if reason != "" {
		return nil, nil, reason, nil
	}
	if torn {
		if err := truncateFileSync(walPath, int64(validLen), s.fsync); err != nil {
			return nil, nil, "", fmt.Errorf("durable: truncating torn tail of %s: %w", walPath, err)
		}
	}

	// Apply the tail on top of the snapshot (or from the registration
	// record when no snapshot exists yet). Records the snapshot already
	// covers — possible when a crash landed between the snapshot rename
	// and the WAL truncate — are skipped by their row watermark.
	for i, r := range recs {
		switch r.Kind {
		case recRegister:
			if st != nil {
				if r.RowsAfter > st.Rows() {
					return nil, nil, fmt.Sprintf("registration record at index %d above snapshot watermark", i), nil
				}
				continue // pre-snapshot history
			}
			if i != 0 {
				return nil, nil, fmt.Sprintf("registration record at index %d, want 0", i), nil
			}
			if r.RowsAfter != len(r.Rows) {
				return nil, nil, fmt.Sprintf("registration row watermark %d does not match its %d rows", r.RowsAfter, len(r.Rows)), nil
			}
			var rerr error
			if st, rerr = relation.StoreFromRows(r.Names, r.Rows); rerr != nil {
				return nil, nil, fmt.Sprintf("registration rows: %v", rerr), nil
			}
			name = r.Name
			lastFP = r.FP
			applied++
		case recAppend:
			if st == nil {
				return nil, nil, "append record before any registration or snapshot", nil
			}
			if r.RowsAfter <= st.Rows() {
				continue // already in the snapshot
			}
			if r.RowsAfter != st.Rows()+len(r.Rows) {
				return nil, nil, fmt.Sprintf("sequence gap: record raises rows to %d but %d+%d expected", r.RowsAfter, st.Rows(), len(r.Rows)), nil
			}
			for _, row := range r.Rows {
				if aerr := st.Append(row); aerr != nil {
					return nil, nil, fmt.Sprintf("append rows: %v", aerr), nil
				}
			}
			lastFP = r.FP
			applied++
		}
	}
	if st == nil {
		return nil, nil, reasonEmpty, nil
	}

	// The decisive check: the fingerprint of the replayed content must
	// equal the one recorded when the last surviving record was written.
	view := st.View()
	h := FingerprintOf(view)
	if got := h.Sum(); got != lastFP {
		return nil, nil, fmt.Sprintf("fingerprint mismatch: recorded %.12s…, replayed %.12s…", lastFP, got), nil
	}

	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, "", fmt.Errorf("durable: reopening %s: %w", walPath, err)
	}
	d := &Dataset{
		id:      id,
		dir:     dir,
		store:   s,
		wal:     wal,
		view:    view,
		name:    name,
		fp:      lastFP,
		tail:    applied,
		walSize: int64(validLen),
	}
	d.sy.init()
	d.sy.written = Token(validLen)
	d.sy.synced = Token(validLen)
	rd := &RecoveredDataset{
		ID:          id,
		Name:        name,
		Store:       st,
		Fingerprint: lastFP,
		Hasher:      h,
		Replayed:    applied,
		TornTail:    torn,
	}
	return d, rd, "", nil
}

// truncateFileSync truncates path to size and (optionally) fsyncs the
// repair, so a torn tail does not reappear after the next crash.
func truncateFileSync(path string, size int64, fsync bool) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	if !fsync {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// quarantine moves a damaged dataset directory into the quarantine area
// and records the reason next to it, structured for operators and tests.
func (s *Store) quarantine(id, dir, reason string) (Quarantined, error) {
	dest := filepath.Join(s.quarantineDir(), id)
	for n := 2; ; n++ {
		if _, err := os.Stat(dest); os.IsNotExist(err) {
			break
		}
		dest = filepath.Join(s.quarantineDir(), fmt.Sprintf("%s-%d", id, n))
	}
	if err := os.Rename(dir, dest); err != nil {
		return Quarantined{}, fmt.Errorf("durable: quarantining %s: %w", id, err)
	}
	q := Quarantined{ID: id, Reason: reason, Path: dest}
	body, _ := json.MarshalIndent(struct {
		Quarantined
		At time.Time `json:"at"`
	}{q, time.Now().UTC()}, "", "  ")
	if err := os.WriteFile(filepath.Join(dest, "REASON.json"), append(body, '\n'), 0o644); err != nil {
		return Quarantined{}, fmt.Errorf("durable: writing quarantine reason for %s: %w", id, err)
	}
	return q, nil
}
