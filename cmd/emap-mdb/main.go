// Command emap-mdb builds, persists, converts and inspects
// mega-database snapshots.
//
// Usage:
//
//	emap-mdb build -out mdb.snap [-seed N] [-per N] [-format gob|columnar]
//	emap-mdb convert -in mdb.snap -out mdb.col -format columnar
//	emap-mdb info -in mdb.snap
//
// build draws recordings from the five emulated public corpora at
// their native rates, runs the full construction pipeline (resample →
// bandpass → slice → label) and writes a snapshot the cloud server can
// load. convert rewrites a snapshot between the v1 gob format and the
// v2 columnar format (DESIGN.md §14); both hold the records' int16
// counts, so converting either way and back is bit-stable. info reports the format
// and resident footprint alongside the label counts.
package main

import (
	"flag"
	"fmt"
	"os"

	"emap"
	"emap/internal/mdb"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		buildCmd(os.Args[2:])
	case "convert":
		convertCmd(os.Args[2:])
	case "info":
		infoCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: emap-mdb build -out FILE [-seed N] [-per N] [-format gob|columnar]
       emap-mdb convert -in FILE -out FILE -format gob|columnar
       emap-mdb info -in FILE`)
	os.Exit(2)
}

// parseFormat maps the -format flag value onto a snapshot format,
// exiting with a usage error for anything unrecognised.
func parseFormat(name string) mdb.Format {
	f, err := mdb.ParseFormat(name)
	if err != nil {
		fatal(err)
	}
	return f
}

func buildCmd(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("out", "mdb.snap", "output snapshot path")
	seed := fs.Uint64("seed", 2020, "generator seed")
	per := fs.Int("per", 8, "recordings per corpus")
	format := fs.String("format", "gob", "snapshot format: gob|columnar")
	fs.Parse(args)
	f := parseFormat(*format)

	gen := emap.NewGenerator(*seed)
	store, err := emap.BuildMDBFromCorpora(gen, *per)
	if err != nil {
		fatal(err)
	}
	if err := store.Snapshot().SaveFileFormat(*out, f); err != nil {
		fatal(err)
	}
	normal, anomalous := store.LabelCounts()
	fmt.Printf("built %s (%s): %d recordings, %d signal-sets (%d normal / %d anomalous)\n",
		*out, f, store.NumRecords(), store.NumSets(), normal, anomalous)
}

func convertCmd(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input snapshot path (any format)")
	out := fs.String("out", "", "output snapshot path")
	format := fs.String("format", "columnar", "output format: gob|columnar")
	fs.Parse(args)
	f := parseFormat(*format)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("convert needs -in and -out"))
	}

	store, err := mdb.LoadFile(*in)
	if err != nil {
		fatal(err)
	}
	if err := store.Snapshot().SaveFileFormat(*out, f); err != nil {
		fatal(err)
	}
	fmt.Printf("converted %s (%s) -> %s (%s): %d recordings, %d signal-sets\n",
		*in, store.Format(), *out, f, store.NumRecords(), store.NumSets())
}

func infoCmd(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "mdb.snap", "snapshot path")
	fs.Parse(args)

	store, err := mdb.LoadFile(*in)
	if err != nil {
		fatal(err)
	}
	st, err := os.Stat(*in)
	if err != nil {
		fatal(err)
	}
	normal, anomalous := store.LabelCounts()
	samples := store.TotalSamples()
	perSample := 0.0
	if samples > 0 {
		perSample = float64(st.Size()) / float64(samples)
	}
	fmt.Printf("%s:\n  format:       %s\n  recordings:   %d\n  signal-sets:  %d\n  normal:       %d\n  anomalous:    %d\n  samples:      %d (%.1f minutes at 256 Hz)\n  file size:    %d bytes (%.2f bytes/sample)\n",
		*in, store.Format(), store.NumRecords(), store.NumSets(), normal, anomalous,
		samples, float64(samples)/256/60, st.Size(), perSample)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emap-mdb:", err)
	os.Exit(1)
}
