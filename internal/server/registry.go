package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// dataset is one registered relation: an incremental discovery session
// (the miner holds the dataset's one column store and maintains ag(r)
// under appends) plus a running content fingerprint. The fingerprint
// commits the schema and every appended row in order, so it identifies
// the exact relation instance — the result
// cache keys on it, which makes append-then-discover a guaranteed miss
// and repeat discovery a guaranteed hit. The same fingerprint is logged
// with every durable record, which is what recovery verifies against.
type dataset struct {
	id      string
	name    string
	created time.Time

	// mu serialises appends against view captures and incremental
	// derivations, so every reader sees a consistent (rows, fingerprint)
	// pair.
	mu     sync.Mutex
	miner  *incremental.Miner
	hasher *durable.Fingerprint
	fp     string
	// version counts committed appends.
	version int
	// views counts the views captured by snapshot: a discovery that
	// streams its durable snapshot, and a warm fleet, capture none.
	views int

	// dur is the dataset's durable handle; nil when the server runs
	// memory-only (no -data-dir). brokenErr is the sticky durability
	// failure: once the WAL cannot be trusted to match memory the
	// dataset stops accepting appends and serves reads only.
	dur       *durable.Dataset
	brokenErr error
}

// info snapshots the dataset's wire description.
func (d *dataset) info() DatasetInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DatasetInfo{
		ID:          d.id,
		Name:        d.name,
		Fingerprint: d.fp,
		Rows:        d.miner.Rows(),
		Attributes:  d.miner.Arity(),
		Names:       append([]string(nil), d.miner.Names()...),
		Version:     d.version,
		Created:     d.created,
	}
}

// fingerprint returns the dataset's current content fingerprint.
func (d *dataset) fingerprint() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fp
}

// snapshot returns a view of the dataset's current rows and the
// fingerprint it corresponds to. The view is captured under the lock in
// O(|R|) and shares the miner's store; later appends never change it.
func (d *dataset) snapshot() (*relation.Relation, string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.views++
	rel, err := d.miner.Snapshot()
	return rel, d.fp, err
}

// errDurability marks appends (or registrations) refused because the
// durable layer failed; the handler maps it to 503. Once raised for a
// dataset it is sticky: memory may be ahead of the last durable record,
// so the dataset serves reads only until the operator restarts — at
// which point recovery rebuilds exactly the durable prefix.
var errDurability = fmt.Errorf("durability failure")

// appendRows commits rows to the incremental session, updating ag(r) and
// the running fingerprint per committed row. On a mid-append abort
// (deadline, cancellation, bad arity) the rows inserted so far stay
// committed and the fingerprint reflects exactly them, so the dataset
// remains consistent; the count of committed rows is returned either way.
//
// With durability on, the committed prefix is logged and fsync'd before
// returning: the WAL frame is written under the dataset lock, then the
// lock is released before the group-commit wait, so concurrent appends
// to other datasets — and later appends to this one queued behind the
// lock — overlap the fsync instead of serialising on it.
func (d *dataset) appendRows(ctx context.Context, rows [][]string) (committed int, fp string, err error) {
	d.mu.Lock()
	if d.brokenErr != nil {
		fp = d.fp
		d.mu.Unlock()
		return 0, fp, fmt.Errorf("%w: %v", errDurability, d.brokenErr)
	}
	for _, row := range rows {
		if ierr := d.miner.InsertCtx(ctx, row); ierr != nil {
			err = ierr
			break
		}
		d.hasher.AddRow(row)
		d.version++
		committed++
	}
	if committed > 0 {
		d.fp = d.hasher.Sum()
	}
	fp = d.fp
	if d.dur == nil || committed == 0 {
		d.mu.Unlock()
		return committed, fp, err
	}
	// A WAL write failure supersedes any insert error: the dataset is now
	// broken and the caller must not acknowledge the batch. The durable
	// handle keeps the view for its compactor; it is captured from the
	// miner directly, since views counts only discoveries' captures.
	view, _ := d.miner.Snapshot() // Snapshot never fails
	tok, werr := d.dur.Append(rows[:committed], view, d.fp)
	if werr != nil {
		d.brokenErr = werr
		d.mu.Unlock()
		return committed, fp, fmt.Errorf("%w: %v", errDurability, werr)
	}
	d.mu.Unlock()
	if serr := d.dur.Sync(tok); serr != nil {
		d.mu.Lock()
		if d.brokenErr == nil {
			d.brokenErr = serr
		}
		d.mu.Unlock()
		return committed, fp, fmt.Errorf("%w: %v", errDurability, serr)
	}
	return committed, fp, err
}

// deriveCover re-derives the canonical cover from the maintained agree
// sets (steps 2–4 only — no re-scan of the data; cost independent of the
// row count). The lock holds appends off so the cover matches the
// returned fingerprint.
func (d *dataset) deriveCover(ctx context.Context) (fd.Cover, DatasetInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cover, err := d.miner.Cover(ctx)
	info := DatasetInfo{
		ID:          d.id,
		Name:        d.name,
		Fingerprint: d.fp,
		Rows:        d.miner.Rows(),
		Attributes:  d.miner.Arity(),
		Names:       append([]string(nil), d.miner.Names()...),
		Version:     d.version,
		Created:     d.created,
	}
	return cover, info, err
}

// registry is the server's dataset store.
type registry struct {
	mu   sync.RWMutex
	max  int
	byID map[string]*dataset
	ids  []string // registration order, for stable listings
}

func newRegistry(max int) *registry {
	return &registry{max: max, byID: make(map[string]*dataset)}
}

// errRegistryFull distinguishes the capacity rejection for the handler's
// status-code mapping.
var errRegistryFull = fmt.Errorf("dataset registry full")

// durableCreate persists a new dataset's registration record before it
// becomes visible; nil when the server runs memory-only. It is invoked
// under the registry lock — registration is rare, so one fsync there is
// acceptable and guarantees no window where a dataset is addressable but
// not durable.
type durableCreate func(id, fp string) (*durable.Dataset, error)

// register adds a relation under a content-derived id. Registering
// byte-identical content again returns the existing dataset (idempotent),
// provided it has not been grown since; grown or colliding datasets get a
// fresh suffixed id. With durability on, the registration record is
// logged and fsync'd (via create) before the dataset is published.
func (r *registry) register(name string, rel *relation.Relation, m *incremental.Miner, now time.Time, create durableCreate) (*dataset, bool, error) {
	h := durable.FingerprintOf(rel)
	fp := h.Sum()
	base := "ds-" + fp[:12]

	r.mu.Lock()
	defer r.mu.Unlock()
	id := base
	for n := 2; ; n++ {
		existing, ok := r.byID[id]
		if !ok {
			break
		}
		existing.mu.Lock()
		same := existing.fp == fp
		existing.mu.Unlock()
		if same {
			return existing, false, nil
		}
		id = fmt.Sprintf("%s-%d", base, n)
	}
	if r.max > 0 && len(r.byID) >= r.max {
		return nil, false, fmt.Errorf("%w: %d datasets registered (cap %d)", errRegistryFull, len(r.byID), r.max)
	}
	var dur *durable.Dataset
	if create != nil {
		var err error
		dur, err = create(id, fp)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", errDurability, err)
		}
	}
	d := &dataset{
		id:      id,
		name:    name,
		created: now,
		miner:   m,
		hasher:  h,
		fp:      fp,
		dur:     dur,
	}
	r.byID[id] = d
	r.ids = append(r.ids, id)
	return d, true, nil
}

// restore publishes a dataset recovered from disk at boot: the
// incremental session is seeded (workers wide) over the recovered column
// store, adopted without re-encoding, and the fingerprint is recomputed
// once more on the registry's own hasher — a final cross-check that the
// recovered content is exactly what was acknowledged.
func (r *registry) restore(rd durable.RecoveredDataset, dur *durable.Dataset, now time.Time, workers int) error {
	h := durable.FingerprintOf(rd.Store.View())
	m, err := incremental.FromStore(context.Background(), rd.Store, workers)
	if err != nil {
		return fmt.Errorf("restoring %s: %w", rd.ID, err)
	}
	if got := h.Sum(); got != rd.Fingerprint {
		return fmt.Errorf("restoring %s: rebuilt fingerprint %s does not match recovered %s", rd.ID, got, rd.Fingerprint)
	}
	d := &dataset{
		id:      rd.ID,
		name:    rd.Name,
		created: now,
		miner:   m,
		hasher:  h,
		fp:      rd.Fingerprint,
		dur:     dur,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[rd.ID]; ok {
		return fmt.Errorf("restoring %s: id already registered", rd.ID)
	}
	r.byID[rd.ID] = d
	r.ids = append(r.ids, rd.ID)
	return nil
}

func (r *registry) get(id string) (*dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byID[id]
	return d, ok
}

// findByFingerprint resolves a dataset by content fingerprint — the
// address shard requests use, so a worker provably computes over the
// same bytes the coordinator planned against. Linear in the registry
// size, which is capped small (MaxDatasets).
func (r *registry) findByFingerprint(fp string) (*dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.ids {
		d := r.byID[id]
		if d.fingerprint() == fp {
			return d, true
		}
	}
	return nil, false
}

func (r *registry) list() []DatasetInfo {
	r.mu.RLock()
	ds := make([]*dataset, 0, len(r.ids))
	for _, id := range r.ids {
		ds = append(ds, r.byID[id])
	}
	r.mu.RUnlock()
	out := make([]DatasetInfo, len(ds))
	for i, d := range ds {
		out[i] = d.info()
	}
	return out
}

func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}
