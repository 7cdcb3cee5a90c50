package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// Token identifies a logged-but-possibly-unsynced WAL write: the logical
// byte offset its frame ends at. Sync(token) blocks until everything up
// to it is durable. Logical offsets grow monotonically for the life of
// the handle — compaction truncates the file but never rewinds them, so
// a token taken before a compaction stays valid after it.
type Token int64

// Dataset is the durable handle of one registered dataset: its WAL
// writer, group-commit syncer, and the latest view of the serving
// layer's column store, which the compactor snapshots. It holds no column
// data of its own. Appends may be issued concurrently; frames are written
// under an internal lock and fsyncs are shared (group commit).
type Dataset struct {
	id    string
	dir   string
	store *Store

	// wmu serialises frame writes, view updates, and compaction.
	wmu  sync.Mutex
	wal  *os.File
	view *relation.Relation // the dataset's rows as of the last record
	name string
	fp   string
	// tail counts append records since the last snapshot; at
	// SnapshotEvery the dataset is queued for compaction.
	tail int
	// walSize is the current WAL file size, reclaimed at compaction.
	walSize int64

	sy syncer
}

// syncer implements leader/follower group commit over one WAL file.
// Writers bump written under wmu; Sync waiters elect a leader that
// fsyncs once for every frame written so far, so concurrent appends
// share fsyncs instead of queueing one each. Errors are sticky: after a
// failed write or fsync the dataset stops accepting appends — the WAL
// tail can no longer be trusted to match memory — and recovery at next
// boot serves the last durable prefix.
type syncer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	written Token // logical bytes framed into the WAL
	synced  Token // logical bytes known durable
	syncing bool  // a leader's fsync is in flight
	err     error // sticky failure

	pendingRecs int64 // records written but not yet durable
}

func (y *syncer) init() { y.cond = sync.NewCond(&y.mu) }

// fail records the sticky error and wakes every waiter.
func (y *syncer) fail(err error) {
	if y.err == nil {
		y.err = err
	}
	y.cond.Broadcast()
}

// ID returns the dataset's registry id (also its directory name).
func (d *Dataset) ID() string { return d.id }

// SnapshotInfo reports the dataset's snapshot path and whether the
// snapshot alone reproduces the full acknowledged state: a snapshot file
// exists and no append records landed after it. Such a snapshot can be
// streamed into discovery (durable.OpenSnapshotStream) instead of
// materialising the relation; the snapshot's embedded fingerprint lets
// readers re-verify against the registry after opening, so a compaction
// or append racing this check degrades to the materialised path, never
// to stale data.
func (d *Dataset) SnapshotInfo() (path string, complete bool) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	path = filepath.Join(d.dir, "snapshot.snap")
	if d.tail != 0 {
		return path, false
	}
	if _, err := os.Stat(path); err != nil {
		return path, false
	}
	return path, true
}

// Append logs one acknowledged-to-be batch: rows were committed in
// memory, and view is the dataset with them, content fingerprint fp. The
// frame is written (not yet synced) and a Token is returned; the caller
// must Sync it before acknowledging the append. Splitting the two lets
// the caller drop its own dataset lock before the fsync wait, which is
// what makes group commit batch under load.
func (d *Dataset) Append(rows [][]string, view *relation.Relation, fp string) (Token, error) {
	payload := encodeAppend(view.Rows(), rows, fp)
	frame := appendFrame(nil, payload)

	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.sy.mu.Lock()
	serr := d.sy.err
	d.sy.mu.Unlock()
	if serr != nil {
		return 0, fmt.Errorf("durable: dataset %s: %w", d.id, serr)
	}
	if err := faultinject.Fire(faultinject.DurableWrite); err != nil {
		werr := fmt.Errorf("durable: wal write %s: %w", d.id, err)
		d.sy.mu.Lock()
		d.sy.fail(werr)
		d.sy.mu.Unlock()
		return 0, werr
	}
	if _, err := d.wal.Write(frame); err != nil {
		werr := fmt.Errorf("durable: wal write %s: %w", d.id, err)
		d.sy.mu.Lock()
		d.sy.fail(werr)
		d.sy.mu.Unlock()
		return 0, werr
	}
	d.view = view
	d.fp = fp
	d.tail++
	d.walSize += int64(len(frame))
	d.store.noteAppend(int64(len(frame)))
	if d.store.snapshotEvery > 0 && d.tail >= d.store.snapshotEvery {
		d.store.queueCompact(d)
	}

	d.sy.mu.Lock()
	d.sy.written += Token(len(frame))
	d.sy.pendingRecs++
	tok := d.sy.written
	d.sy.mu.Unlock()
	return tok, nil
}

// Sync blocks until everything up to tok is durable (fsync'd, or folded
// into a fsync'd snapshot by a concurrent compaction). With fsync
// disabled it returns immediately — the write already reached the OS.
func (d *Dataset) Sync(tok Token) error {
	if !d.store.fsync {
		return nil
	}
	y := &d.sy
	y.mu.Lock()
	defer y.mu.Unlock()
	for {
		if y.err != nil {
			return fmt.Errorf("durable: dataset %s: %w", d.id, y.err)
		}
		if y.synced >= tok {
			return nil
		}
		if !y.syncing {
			// Become the leader: one fsync covers every frame written so
			// far, including followers that queued behind this one.
			y.syncing = true
			mark := y.written
			covered := y.pendingRecs
			y.mu.Unlock()
			err := faultinject.Fire(faultinject.DurableFsync)
			if err == nil {
				err = d.wal.Sync()
			}
			y.mu.Lock()
			y.syncing = false
			if err != nil {
				y.fail(fmt.Errorf("fsync: %w", err))
				continue
			}
			if mark > y.synced {
				y.synced = mark
				batched := covered
				y.pendingRecs -= covered
				d.store.noteSync(batched)
			}
			y.cond.Broadcast()
			continue
		}
		y.cond.Wait()
	}
}

// compact folds the dataset's WAL into a snapshot: encode the latest
// view, write it to a temp file, fsync, atomically rename it over the
// previous snapshot, fsync the directory, then truncate the WAL so
// recovery replays nothing. A crash between the rename and the truncate
// is benign — replay skips records the snapshot already covers. Errors
// leave the WAL untouched (still fully durable) and are only counted;
// the next trigger retries.
func (d *Dataset) compact() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.sy.mu.Lock()
	serr := d.sy.err
	d.sy.mu.Unlock()
	if serr != nil || d.tail == 0 {
		return nil
	}

	data := encodeSnapshot(d.name, d.view, d.fp)
	tmp := filepath.Join(d.dir, "snapshot.tmp")
	final := filepath.Join(d.dir, "snapshot.snap")
	err := faultinject.Fire(faultinject.DurableWrite)
	if err == nil {
		err = writeFileSync(tmp, data)
	}
	if err == nil {
		err = faultinject.Fire(faultinject.DurableRename)
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err == nil {
		err = syncDir(d.dir)
	}
	if err != nil {
		os.Remove(tmp)
		d.store.noteCompactError()
		return fmt.Errorf("durable: snapshot %s: %w", d.id, err)
	}
	// The snapshot now covers every logged record; truncate the WAL and
	// release any waiters — their frames are durable via the snapshot.
	if terr := d.wal.Truncate(0); terr != nil {
		d.sy.mu.Lock()
		d.sy.fail(fmt.Errorf("wal truncate after snapshot: %w", terr))
		d.sy.mu.Unlock()
		return terr
	}
	reclaimed := d.walSize
	d.walSize = 0
	d.tail = 0
	d.sy.mu.Lock()
	if d.sy.written > d.sy.synced {
		d.sy.synced = d.sy.written
		released := d.sy.pendingRecs
		d.sy.pendingRecs = 0
		d.sy.cond.Broadcast()
		d.sy.mu.Unlock()
		d.store.noteSnapshotBatched(released)
	} else {
		d.sy.mu.Unlock()
	}
	d.store.noteSnapshot(int64(len(data)), reclaimed)
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Fire(faultinject.DurableFsync); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := faultinject.Fire(faultinject.DurableFsync); err != nil {
		return err
	}
	return f.Sync()
}

// close releases the WAL handle.
func (d *Dataset) close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}

// broken reports whether the handle carries a sticky durability error.
func (d *Dataset) broken() bool {
	d.sy.mu.Lock()
	defer d.sy.mu.Unlock()
	return d.sy.err != nil
}
