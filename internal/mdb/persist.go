package mdb

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"emap/internal/synth"
)

// snapshot is the gob wire form of a Store (format v1).
type snapshot struct {
	Version int
	Records []recordSnap
	Sets    []SignalSet
}

// recordSnap is one record of a gob image. An image written since
// records became counts carries Counts and Scale and no Samples; an
// older one carries Samples only, which the loader quantizes — it cannot
// be the other way round, because re-quantizing count·scale reproduces
// (counts, scale) only when the largest count is the 32 000 the quantizer
// itself aims the peak at, and an ingested recording's need not be. gob
// matches fields by name and skips what either side lacks, so the two
// kinds of image share one version.
type recordSnap struct {
	ID        string
	Class     int
	Archetype int
	Onset     int
	Samples   []float64
	Counts    []int16
	Scale     float64
}

const snapshotVersion = 1

// Save serialises the store to w (gob v1). The paper persists its MDB
// in MongoDB; a snapshot file plays that role here so cmd/emap-mdb can
// build once and the cloud server can load at startup. Save captures
// one epoch: a concurrent Insert lands either wholly in the snapshot
// or not at all. Callers that must know WHICH epoch was written (to
// detect a concurrent insert racing the write) capture a Snapshot
// first and use Snapshot.Save.
func (s *Store) Save(w io.Writer) error {
	return s.Snapshot().Save(w)
}

// Save serialises the snapshot's epoch to w (gob v1) — the same wire
// form as Store.Save, but pinned to the epoch the caller captured, so
// the caller can afterwards compare the store's current Snapshot
// against this one (snapshots are comparable) and find out whether an
// insert advanced the store while the write ran. Records go out as they
// are held — counts and scale — so gob↔columnar conversion in either
// direction preserves them exactly.
func (sn Snapshot) Save(w io.Writer) error {
	v := sn.ensure()
	snap := snapshot{Version: snapshotVersion}
	for _, r := range v.recs {
		snap.Records = append(snap.Records, recordSnap{
			ID:        r.ID,
			Class:     int(r.Class),
			Archetype: r.Archetype,
			Onset:     r.Onset,
			Counts:    r.q.counts,
			Scale:     r.q.scale,
		})
	}
	for _, set := range v.sets {
		snap.Sets = append(snap.Sets, *set)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// SaveFormat serialises the snapshot's epoch to w in the given format.
func (sn Snapshot) SaveFormat(w io.Writer, f Format) error {
	if f == FormatColumnar {
		return sn.SaveColumnar(w)
	}
	return sn.Save(w)
}

// Load deserialises a store previously written by Save, SaveColumnar,
// or SaveFile in either format; the format is detected from the
// leading bytes. Either way the records load into the heap (warm tier) —
// only LoadFile can establish the mmap cold tier.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(columnarMagic)); err == nil && string(magic) == columnarMagic {
		return LoadColumnar(br)
	}
	return loadGob(br)
}

// loadGob deserialises a v1 gob snapshot, quantizing the records of an
// image that holds float samples (see recordSnap).
func loadGob(r io.Reader) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mdb: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("mdb: snapshot version %d unsupported (want %d)", snap.Version, snapshotVersion)
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

// SaveFile writes the store snapshot to the named file in the store's
// snapshot format.
func (s *Store) SaveFile(path string) error {
	return s.Snapshot().SaveFileFormat(path, s.format)
}

// SaveFile writes the snapshot's epoch to the named file (gob v1).
func (sn Snapshot) SaveFile(path string) error {
	return sn.SaveFileFormat(path, FormatGob)
}

// SaveFileFormat writes the snapshot's epoch to the named file in the
// given format, atomically: the bytes go to a temp file in the same
// directory, are fsynced, and replace the target via rename. A crash
// mid-write (e.g. during Registry eviction — the tenant's ONLY copy)
// leaves either the old complete snapshot or the new one, never a
// torn file.
func (sn Snapshot) SaveFileFormat(path string, f Format) error {
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
	bw := bufio.NewWriter(tmp)
	if err := sn.SaveFormat(bw, f); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
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

// LoadFile reads a store snapshot from the named file, detecting the
// format. Columnar snapshots are opened via mmap where the platform
// supports it — records start in the cold tier and are served straight
// from the page cache — falling back to an eager, fully-checksummed
// heap load otherwise; a gob snapshot always loads into the heap.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(columnarMagic))
	n, _ := io.ReadFull(f, magic)
	if n == len(columnarMagic) && string(magic) == columnarMagic && hostLittleEndian {
		f.Close()
		if ref, merr := mapFile(path); merr == nil {
			s, perr := parseColumnar(ref.data, ref)
			if perr != nil {
				return nil, perr
			}
			return s, nil
		}
		// Mapping failed (platform or resource limits): fall through
		// to the eager reader below.
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
	} else if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
