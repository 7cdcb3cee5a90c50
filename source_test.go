package depminer

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/durable"
)

// writeSnapshot stores r in a fresh durable store and compacts it into a
// DMSNAP1 snapshot, returning the snapshot's path. The rows are appended
// to an empty dataset: only WAL-appended records give the dataset a tail
// to fold, and CompactAll folds exactly that tail into snapshot.snap.
func writeSnapshot(t testing.TB, r *Relation) string {
	t.Helper()
	rows := make([][]string, r.Rows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	empty, err := NewRelation(r.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, _, err := durable.Open(durable.Options{Dir: dir, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Create("snap", "snap", empty, durable.FingerprintOf(empty).Sum())
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ds.Append(rows, r, durable.FingerprintOf(r).Sum())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Sync(tok); err != nil {
		t.Fatal(err)
	}
	if err := store.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "datasets", "snap", "snapshot.snap")
}

// TestSourceEquivalence pins every miner's one contract across its three
// sources: over a StreamCSV stream and an OpenSnapshot reader, the FDs,
// agree sets, max sets and couple count are byte-identical to Discover
// over the relation, for both Dep-Miner variants and FastFDs, sequential
// and parallel, in memory and spilling. The Armstrong relation over the
// snapshot — real-world or synthetic fallback — is byte-identical to the
// relation's, and over the CSV stream, which keeps no dictionaries, it is
// nil. TANE and candidate keys over the snapshot equal theirs over the
// relation.
func TestSourceEquivalence(t *testing.T) {
	ctx := context.Background()
	rels := map[string]*Relation{"paper": PaperExample()}
	for _, spec := range []GenerateSpec{
		{Attrs: 8, Rows: 300, Correlation: 0.5, Seed: 11},
		{Attrs: 12, Rows: 150, Correlation: 0.3, Seed: 12},
	} {
		r, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		rels[fmt.Sprintf("datagen-%dx%d", spec.Attrs, spec.Rows)] = r
	}
	view := func(res *Result) string {
		return fmt.Sprint(res.FDs, res.AgreeSets, res.MaxSets, res.Couples, res.DFSNodes)
	}
	armstrong := func(res *Result) string {
		return fmt.Sprint(res.ArmstrongSynthetic, res.Armstrong)
	}
	for name, r := range rels {
		var csv bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		sr, err := OpenSnapshot(writeSnapshot(t, r))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sr.Close() })
		sources := map[string]func() Source{
			"csv": func() Source {
				src, err := StreamCSV(bytes.NewReader(csv.Bytes()), true)
				if err != nil {
					t.Fatal(err)
				}
				return src
			},
			"snapshot": func() Source { return sr },
		}
		for _, algo := range []Algorithm{DepMiner, DepMiner2, FastFDs} {
			for _, workers := range []int{1, 4} {
				for _, maxBytes := range []int64{0, 1} {
					opts := Options{Algorithm: algo, Workers: workers, MaxAgreeBytes: maxBytes, SpillDir: t.TempDir()}
					cfg := fmt.Sprintf("%s/%v/workers=%d/max-agree-bytes=%d", name, algo, workers, maxBytes)
					want, err := Discover(ctx, r, opts)
					if err != nil {
						t.Fatalf("%s/relation: %v", cfg, err)
					}
					if want.Armstrong == nil {
						t.Fatalf("%s/relation: no Armstrong relation", cfg)
					}
					for sname, open := range sources {
						got, err := Discover(ctx, open(), opts)
						if err != nil {
							t.Fatalf("%s/%s: %v", cfg, sname, err)
						}
						if view(got) != view(want) {
							t.Errorf("%s/%s: result differs from the relation's:\n got %s\nwant %s", cfg, sname, view(got), view(want))
						}
						if sname == "csv" && got.Armstrong != nil {
							t.Errorf("%s/%s: built an Armstrong relation without the dictionaries", cfg, sname)
						}
						if sname == "snapshot" && armstrong(got) != armstrong(want) {
							t.Errorf("%s/%s: Armstrong relation differs from the relation's:\n got %s\nwant %s", cfg, sname, armstrong(got), armstrong(want))
						}
					}
				}
			}
		}

		// Without the synthetic fallback, Proposition 1 holds or fails
		// alike over both sources.
		strict := Options{Armstrong: ArmstrongRealWorld}
		want, werr := Discover(ctx, r, strict)
		got, gerr := Discover(ctx, sr, strict)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || werr == nil && armstrong(got) != armstrong(want) {
			t.Errorf("%s/snapshot: real-world Armstrong differs: got %v, %v; want %v, %v", name, got, gerr, want, werr)
		}

		tr, err := DiscoverTANE(ctx, r, TANEOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := DiscoverTANE(ctx, sr, TANEOptions{})
		if err != nil || fmt.Sprint(ts.FDs) != fmt.Sprint(tr.FDs) {
			t.Errorf("%s/snapshot: TANE cover differs (err %v)", name, err)
		}
		kr, err := DiscoverKeys(ctx, r, KeysOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ks, err := DiscoverKeys(ctx, sr, KeysOptions{})
		if err != nil || fmt.Sprint(ks.Keys) != fmt.Sprint(kr.Keys) {
			t.Errorf("%s/snapshot: keys differ (err %v)", name, err)
		}
	}

	// The CSV source is single-use: a second run fails outright.
	src := mustStream(t, PaperExample())
	if _, err := Discover(ctx, src, Options{}); err != nil {
		t.Fatal(err)
	}
	if res, err := Discover(ctx, src, Options{}); err == nil || res != nil {
		t.Fatalf("second run over a used-up CSV source: res=%v err=%v, want no result and an error", res, err)
	}
}
