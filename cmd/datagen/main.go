// Command datagen writes a synthetic benchmark relation (paper §5.2) as
// CSV to stdout or a file.
//
// Usage:
//
//	datagen -attrs 20 -rows 10000 -c 0.3 > data.csv
//
// With -stream the CSV is produced row by row in O(|R|) memory — the
// fixture path for out-of-core tests, where the file can be many times
// larger than RAM. Output is byte-identical to the in-memory mode.
package main

import (
	"bufio"
	"context"
	"flag"
	"io"
	"os"

	"repro"
	"repro/internal/cli"
)

func main() {
	var (
		attrs  = flag.Int("attrs", 10, "|R|: number of attributes")
		rows   = flag.Int("rows", 10000, "|r|: number of tuples")
		c      = flag.Float64("c", 0, "rate of identical values (per-column domain = c·|r|; 0 = no constraints)")
		seed   = flag.Uint64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output file (default stdout)")
		stream = flag.Bool("stream", false, "write row by row in O(|R|) memory (same bytes as in-memory mode)")
	)
	flag.Parse()
	cli.Main("datagen", func(ctx context.Context) error {
		return run(ctx, *attrs, *rows, *c, *seed, *out, *stream)
	})
}

func run(ctx context.Context, attrs, rows int, c float64, seed uint64, out string, stream bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	spec := depminer.GenerateSpec{
		Attrs:       attrs,
		Rows:        rows,
		Correlation: c,
		Seed:        seed,
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if stream {
		if err := depminer.GenerateCSV(ctx, spec, bw); err != nil {
			return err
		}
		return bw.Flush()
	}
	r, err := depminer.Generate(spec)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(bw); err != nil {
		return err
	}
	return bw.Flush()
}
