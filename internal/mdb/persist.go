package mdb

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"emap/internal/synth"
)

// Format names a snapshot format. The columnar image is the only one
// a store writes, loads or ships; the type and its one constant stay
// because the benchmark harness (bench/) passes FormatColumnar to
// SaveFileFormat and cloud.Config.StoreFormat.
type Format int

// FormatColumnar is the EMAPCOL2 columnar image (columnar.go). It
// keeps the value it had when a gob format sat beside it, so a
// configuration naming that format (1) is refused, not reinterpreted.
const FormatColumnar Format = 2

// SaveFile writes the store's current epoch to the named file as a
// columnar image (see Snapshot.SaveFile).
func (s *Store) SaveFile(path string) error {
	return s.Snapshot().SaveFile(path)
}

// SaveFileFormat is SaveFile for the one format there is: it exists
// for the benchmark harness, which names the format, and refuses any
// other.
func (sn Snapshot) SaveFileFormat(path string, f Format) error {
	if f != FormatColumnar {
		return fmt.Errorf("mdb: snapshot format %d unsupported (the columnar image is the only one)", f)
	}
	return sn.SaveFile(path)
}

// SaveFile writes the snapshot's epoch to the named file as a columnar
// image, atomically: the bytes go to a temp file in the same
// directory, are fsynced, and replace the target via rename. A crash
// mid-write (e.g. during Registry eviction — the tenant's ONLY copy)
// leaves either the old complete snapshot or the new one, never a
// torn file.
func (sn Snapshot) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := sn.SaveColumnar(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Best effort: make the rename itself durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// LoadFile reads a columnar snapshot from the named file. Where the
// platform maps files, the records are served straight out of the
// mapping — they start in the cold tier, read from the page cache —
// and otherwise the file goes through the eager, fully checksummed
// LoadColumnar. A file that is not a columnar image, such as a gob
// snapshot, is refused with an error naming emap-mdb convert.
func LoadFile(path string) (*Store, error) {
	if hostLittleEndian {
		if ref, err := mapFile(path); err == nil {
			return parseColumnar(ref.data, ref)
		}
		// Mapping failed (platform or resource limits, or an empty
		// file): the eager reader below decides.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadColumnar(f)
}

// gobSnapshot is the gob form of a store, which snapshots took before
// the columnar image became the only format. Only LoadGob reads it.
type gobSnapshot struct {
	Version int
	Records []gobRecord
	Sets    []SignalSet
}

// gobRecord is one record of a gob image. An image written since
// records became counts carries Counts and Scale and no Samples; an
// older one carries Samples only, which the loader quantizes — it cannot
// be the other way round, because re-quantizing count·scale reproduces
// (counts, scale) only when the largest count is the 32 000 the quantizer
// itself aims the peak at, and an ingested recording's need not be. gob
// matches fields by name and skips what either side lacks, so the two
// kinds of image share one version.
type gobRecord struct {
	ID        string
	Class     int
	Archetype int
	Onset     int
	Samples   []float64
	Counts    []int16
	Scale     float64
}

const gobVersion = 1

// LoadGob decodes a gob snapshot, quantizing the records of an image
// that holds float samples (see gobRecord) and holding every set to
// the bounds Insert and the columnar loader enforce. It is the one-way
// input of emap-mdb convert: nothing serves a gob image, and no code
// writes one.
func LoadGob(r io.Reader) (*Store, error) {
	var snap gobSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mdb: decoding gob snapshot: %w", err)
	}
	if snap.Version != gobVersion {
		return nil, fmt.Errorf("mdb: gob snapshot version %d unsupported (want %d)", snap.Version, gobVersion)
	}
	s := NewStore()
	s.recs = make([]*Record, 0, len(snap.Records))
	s.sets = make([]*SignalSet, 0, len(snap.Sets))
	for _, rs := range snap.Records {
		rec := &Record{
			ID:        rs.ID,
			Class:     synth.Class(rs.Class),
			Archetype: rs.Archetype,
			Onset:     rs.Onset,
		}
		if _, dup := s.ix.m.Load(rec.ID); dup {
			return nil, fmt.Errorf("mdb: snapshot has duplicate record %q", rec.ID)
		}
		counts, scale := rs.Counts, rs.Scale
		if counts == nil && scale == 0 {
			counts, scale = quantizeSamples(rs.Samples)
		} else if rs.Samples != nil || !validScale(scale) {
			return nil, fmt.Errorf("mdb: snapshot record %q holds samples beside counts, or scale %v is invalid", rec.ID, scale)
		}
		s.add(rec, newQuantPayload(counts, scale))
	}
	for i := range snap.Sets {
		set := snap.Sets[i]
		x, ok := s.ix.m.Load(set.RecordID)
		if !ok {
			return nil, fmt.Errorf("mdb: signal-set %d references missing record %q", set.ID, set.RecordID)
		}
		// What Insert and the columnar loader hold a set to: the scan
		// reads the record's counts through these bounds.
		if set.Start < 0 || set.Length < 0 || set.Length > MaxSliceLen || set.Start+set.Length > x.(*Record).Len() {
			return nil, fmt.Errorf("mdb: signal-set %d does not fit record %q (or is over %d samples)", set.ID, set.RecordID, MaxSliceLen)
		}
		s.sets = append(s.sets, &set)
	}
	s.publish()
	return s, nil
}
