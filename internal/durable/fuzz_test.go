package durable

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/relation"
)

// fuzzSeedWAL builds a realistic multi-record WAL the fuzzer mutates.
func fuzzSeedWAL() []byte {
	reg := viewOf(testRows(0, 3))
	f := FingerprintOf(reg)
	wal := appendFrame(nil, encodeRegister("fuzz/seed", reg, f.Sum()))
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
			if got := FingerprintOf(rd.Store.View()).Sum(); got != rd.Fingerprint {
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

// FuzzSnapshotDecode hardens the one snapshot decoder the same way:
// arbitrary bytes must open cleanly or error, never panic, and a snapshot
// the store accepts must round-trip — decode → store → encodeSnapshot →
// decode gives the same name, fingerprint, rows and dictionaries.
func FuzzSnapshotDecode(f *testing.F) {
	rel, err := relation.FromRows([]string{"a", "b"}, [][]string{{"x", "1"}, {"y", "2"}, {"x", "2"}})
	if err != nil {
		f.Fatal(err)
	}
	good := encodeSnapshot("fuzz/snap", rel, FingerprintOf(rel).Sum())
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(flipAt(good, len(good)/2))
	f.Add([]byte{})
	f.Add(duplicateDictSnapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := OpenSnapshotStream(writeSnapshotFile(t, data))
		if err != nil {
			return
		}
		defer sr.Close()
		st, err := relation.StoreOf(sr)
		if err != nil {
			return // e.g. a repeated dictionary value
		}
		sr2 := openSnapshotBytes(t, encodeSnapshot(sr.Name(), st.View(), sr.Fingerprint()))
		if sr2.Name() != sr.Name() || sr2.Fingerprint() != sr.Fingerprint() {
			t.Fatal("snapshot round-trip drifted: name or fingerprint")
		}
		st2, err := relation.StoreOf(sr2)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot fails decode: %v", err)
		}
		if !sameEncoding(st.View(), st2.View()) {
			t.Fatal("snapshot round-trip drifted: rows or dictionaries")
		}
	})
}

// sameEncoding reports whether a and b have the same schema, and per
// attribute the same dictionary and code column.
func sameEncoding(a, b *relation.Relation) bool {
	if !slices.Equal(a.Names(), b.Names()) || a.Rows() != b.Rows() {
		return false
	}
	for x := range a.Arity() {
		ca, da, _ := a.Column(x)
		cb, db, _ := b.Column(x)
		va, _ := a.DictPrefix(x, da)
		vb, _ := b.DictPrefix(x, db)
		if !slices.Equal(ca, cb) || !slices.Equal(va, vb) {
			return false
		}
	}
	return true
}
