package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedWAL builds a realistic multi-record WAL the fuzzer mutates.
func fuzzSeedWAL() []byte {
	names := []string{"user", "city", "val"}
	f := NewFingerprint(names)
	rows := testRows(0, 3)
	for _, r := range rows {
		f.AddRow(r)
	}
	wal := appendFrame(nil, encodeRegister("fuzz/seed", names, rows, f.Sum()))
	total := 3
	for b := 0; b < 4; b++ {
		batch := testRows(total, 2)
		for _, r := range batch {
			f.AddRow(r)
		}
		total += 2
		wal = appendFrame(wal, encodeAppend(total, batch, f.Sum()))
	}
	return wal
}

// FuzzWALReplay feeds mutated WAL bytes through full store recovery.
// Invariants under arbitrary damage: recovery never panics; a recovered
// dataset's content always matches its recorded fingerprint (so a
// mutation can truncate history or quarantine the dataset, but never
// yield a silently wrong one); everything else is quarantined or
// dropped, with the store still opening.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedWAL()
	f.Add(seed)
	f.Add(seed[:len(seed)-5])        // torn tail
	f.Add(flipAt(seed, 20))          // corrupt first record
	f.Add(flipAt(seed, len(seed)/2)) // corrupt mid-log
	f.Add([]byte{})                  // empty file
	f.Add([]byte("DMSNAP1\nnope"))   // snapshot magic in a WAL
	short := append([]byte(nil), seed[:frameHeaderLen+1]...)
	f.Add(short) // header with almost no payload

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		dsDir := filepath.Join(dir, "datasets", "ds-fuzz")
		if err := os.MkdirAll(dsDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dsDir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(Options{Dir: dir, DisableFsync: true})
		if err != nil {
			// Open only errors on store-level I/O failures, which a WAL
			// byte pattern must never cause.
			t.Fatalf("Open failed on fuzzed WAL: %v", err)
		}
		defer s.Close()
		if len(rec.Datasets)+len(rec.Quarantined) > 1 {
			t.Fatalf("one input produced %d datasets + %d quarantined",
				len(rec.Datasets), len(rec.Quarantined))
		}
		for _, rd := range rec.Datasets {
			if got := ContentFingerprint(rd.Names, rd.Rows); got != rd.Fingerprint {
				t.Fatalf("recovered dataset fails its own fingerprint: %s != %s", got, rd.Fingerprint)
			}
		}
		for _, q := range rec.Quarantined {
			if q.Reason == "" {
				t.Fatal("quarantined without a reason")
			}
			if _, err := os.Stat(filepath.Join(q.Path, "REASON.json")); err != nil {
				t.Fatalf("quarantine missing REASON.json: %v", err)
			}
		}
		// Recovery must be idempotent: reopening reproduces the outcome.
		s.Close()
		s2, rec2, err := Open(Options{Dir: dir, DisableFsync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if len(rec2.Datasets) != len(rec.Datasets) {
			t.Fatalf("reopen recovered %d datasets, first pass %d", len(rec2.Datasets), len(rec.Datasets))
		}
		if len(rec.Datasets) == 1 && len(rec2.Datasets) == 1 {
			if rec2.Datasets[0].Fingerprint != rec.Datasets[0].Fingerprint {
				t.Fatal("reopen changed the recovered content")
			}
			if rec2.Datasets[0].Replayed != rec.Datasets[0].Replayed {
				t.Fatalf("reopen replayed %d records, first pass %d — torn-tail repair not durable",
					rec2.Datasets[0].Replayed, rec.Datasets[0].Replayed)
			}
		}
	})
}

// FuzzSnapshotDecode hardens the snapshot reader the same way: arbitrary
// bytes must decode cleanly or error, never panic, and a successful
// decode must round-trip.
func FuzzSnapshotDecode(f *testing.F) {
	c := newColstore([]string{"a", "b"})
	rows := [][]string{{"x", "1"}, {"y", "2"}, {"x", "2"}}
	for _, r := range rows {
		c.appendRow(r)
	}
	good := encodeSnapshot("fuzz/snap", c, ContentFingerprint([]string{"a", "b"}, rows))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(flipAt(good, len(good)/2))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		name, c, fp, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		c2Rows := c.materialize()
		reenc := encodeSnapshot(name, c, fp)
		name2, c2, fp2, err := decodeSnapshot(reenc)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot fails decode: %v", err)
		}
		if name2 != name || fp2 != fp || c2.rows != len(c2Rows) {
			t.Fatal("snapshot round-trip drifted")
		}
	})
}
