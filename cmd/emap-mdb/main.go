// Command emap-mdb builds, converts and inspects mega-database
// snapshots.
//
// Usage:
//
//	emap-mdb build -out mdb.snap [-seed N] [-per N]
//	emap-mdb convert -in old.snap -out mdb.snap
//	emap-mdb info -in mdb.snap
//
// build draws recordings from the five emulated public corpora at
// their native rates, runs the full construction pipeline (resample →
// bandpass → slice → label) and writes the columnar snapshot the cloud
// server loads (DESIGN.md §14). convert reads a gob snapshot, the
// format stores were saved in before the columnar image became the
// only one, and writes the columnar image of the same records, counts
// and scales; nothing else reads gob, so an old snapshot is served only
// after this one-way conversion. info reports the label counts and the
// file's bytes per stored sample.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"emap"
	"emap/internal/mdb"
)

// commands maps each subcommand to the function that runs it.
var commands = map[string]func(args []string, stdout io.Writer) error{
	"build":   runBuild,
	"convert": runConvert,
	"info":    runInfo,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, `usage: emap-mdb build -out FILE [-seed N] [-per N]
       emap-mdb convert -in GOBFILE -out FILE
       emap-mdb info -in FILE`)
		os.Exit(2)
	}
	if err := commands[os.Args[1]](os.Args[2:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "emap-mdb:", err)
		os.Exit(1)
	}
}

func runBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	out := fs.String("out", "mdb.snap", "output snapshot path")
	seed := fs.Uint64("seed", 2020, "generator seed")
	per := fs.Int("per", 8, "recordings per corpus")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := emap.BuildMDBFromCorpora(emap.NewGenerator(*seed), *per)
	if err != nil {
		return err
	}
	if err := store.SaveFile(*out); err != nil {
		return err
	}
	normal, anomalous := store.LabelCounts()
	fmt.Fprintf(stdout, "built %s: %d recordings, %d signal-sets (%d normal / %d anomalous)\n",
		*out, store.NumRecords(), store.NumSets(), normal, anomalous)
	return nil
}

func runConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input gob snapshot path")
	out := fs.String("out", "", "output columnar snapshot path (may equal -in)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("convert needs -in and -out")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	store, err := mdb.LoadGob(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := store.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %s (gob) -> %s (columnar): %d recordings, %d signal-sets\n",
		*in, *out, store.NumRecords(), store.NumSets())
	return nil
}

func runInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "mdb.snap", "snapshot path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := mdb.LoadFile(*in)
	if err != nil {
		return err
	}
	st, err := os.Stat(*in)
	if err != nil {
		return err
	}
	normal, anomalous := store.LabelCounts()
	samples := store.TotalSamples()
	perSample := 0.0
	if samples > 0 {
		perSample = float64(st.Size()) / float64(samples)
	}
	fmt.Fprintf(stdout, "%s:\n  recordings:   %d\n  signal-sets:  %d\n  normal:       %d\n  anomalous:    %d\n  samples:      %d (%.1f minutes at 256 Hz)\n  file size:    %d bytes (%.2f bytes/sample)\n",
		*in, store.NumRecords(), store.NumSets(), normal, anomalous,
		samples, float64(samples)/256/60, st.Size(), perSample)
	return nil
}
