// Package wal is the per-tenant write-ahead log that makes ingest
// durable between snapshot persists. The mdb Registry only writes a
// tenant's snapshot on eviction or graceful shutdown; before this log
// existed, a kill -9 or power loss silently lost every recording
// ingested since the last persist. Now the cloud tier appends each
// ingest's quantized wire payload to the tenant's log BEFORE inserting
// it into the epoch store, and acknowledges only after the append (and,
// under SyncAlways, its fsync) succeeded — so "acked" implies "replays
// after a crash".
//
// # Frame format
//
// A log is a flat sequence of length-prefixed, checksummed frames
// (little-endian):
//
//	length  uint32  payload byte count (≤ MaxRecord)
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload [length]byte
//
// There is no file header: an empty file is an empty log, and a log
// truncated at any frame boundary is a valid log — the property that
// makes checkpoint-by-replace and torn-tail repair safe.
//
// # Torn tails
//
// A crash can land mid-append: the tail of the file may hold a partial
// header, a partial payload, or a frame whose CRC does not match the
// bytes that reached the platter. Replay tolerates all of these the
// way the columnar loader tolerates corrupt snapshots (error, never
// panic): it applies frames up to the first bad one, truncates the
// file back to that boundary, and reports how much it cut. Everything
// before the tear was acknowledged-and-synced or is a superset of the
// snapshot; everything after it was never acknowledged under
// SyncAlways.
//
// # Checkpoints
//
// Once a snapshot persist covers the log's records, Checkpoint
// atomically replaces the log with an empty one (temp file + fsync +
// rename, the SaveFile discipline). A crash before the rename
// leaves the full log — replay then re-applies records the snapshot
// already holds, which the apply callback treats as no-ops — and a
// crash after it leaves the empty log next to the covering snapshot.
// Either way no acknowledged record is lost.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/iofault"
)

// MaxRecord bounds one frame's payload, mirroring proto.MaxPayload: a
// larger length prefix is treated as corruption, not an allocation
// request.
const MaxRecord = 16 << 20

// frameHeader is the per-frame overhead: 4 length bytes + 4 CRC bytes.
const frameHeader = 8

// castagnoli is the CRC-32C table shared by append and replay.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append/Sync on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrTooLarge is returned by Append for payloads over MaxRecord.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecord")

// Policy selects when appends reach stable storage.
type Policy int

const (
	// SyncAlways fsyncs every append before it returns — the durable
	// default: an acknowledged ingest survives any crash.
	SyncAlways Policy = iota
	// SyncInterval fsyncs at most once per Options.Interval,
	// piggybacked on appends; a crash can lose at most the last
	// interval's acknowledgements.
	SyncInterval
	// SyncNever leaves syncing to the OS (and to Close/Checkpoint); a
	// crash can lose everything since the last checkpoint. For
	// benchmarks and deployments that accept snapshot-only
	// durability.
	SyncNever
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a -wal-sync flag value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// DefaultInterval is the SyncInterval flush cadence when Options
// leaves Interval zero.
const DefaultInterval = 50 * time.Millisecond

// Options parameterises a log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync Policy
	// Interval is the SyncInterval flush cadence (default
	// DefaultInterval).
	Interval time.Duration
	// FS is the filesystem the log lives on (default the real OS);
	// tests inject an iofault.Faulty here.
	FS iofault.FS
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.FS == nil {
		o.FS = iofault.OS()
	}
	return o
}

// Metrics counts log activity (all fields atomic); one Metrics is
// typically shared by every tenant log of a registry, the aggregate
// the /metrics endpoint exports.
type Metrics struct {
	// Appends counts appended records; AppendedBytes their framed
	// bytes.
	Appends       atomic.Int64
	AppendedBytes atomic.Int64
	// Syncs counts fsync barriers; SyncNanos accumulates their
	// latency, so SyncNanos/Syncs is the mean fsync cost.
	Syncs     atomic.Int64
	SyncNanos atomic.Int64
	// Replayed counts records re-applied by Replay across opens.
	Replayed atomic.Int64
	// TornTails counts replays that found (and truncated) a torn
	// tail; TruncatedBytes is how much they cut.
	TornTails      atomic.Int64
	TruncatedBytes atomic.Int64
	// Checkpoints counts log truncations after a covering snapshot.
	Checkpoints atomic.Int64
}

// MetricsSnapshot is a plain-value copy of a Metrics.
type MetricsSnapshot struct {
	Appends        int64
	AppendedBytes  int64
	Syncs          int64
	SyncNanos      int64
	Replayed       int64
	TornTails      int64
	TruncatedBytes int64
	Checkpoints    int64
}

// Snapshot returns a race-safe copy of every counter.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Appends:        m.Appends.Load(),
		AppendedBytes:  m.AppendedBytes.Load(),
		Syncs:          m.Syncs.Load(),
		SyncNanos:      m.SyncNanos.Load(),
		Replayed:       m.Replayed.Load(),
		TornTails:      m.TornTails.Load(),
		TruncatedBytes: m.TruncatedBytes.Load(),
		Checkpoints:    m.Checkpoints.Load(),
	}
}

// Log is one tenant's append-only write-ahead log. It is safe for
// concurrent use: appends serialise on an internal mutex, so each
// frame reaches the file as one contiguous write.
type Log struct {
	path string
	opts Options
	m    *Metrics // never nil

	mu       sync.Mutex
	f        iofault.File
	closed   bool
	dirty    bool      // bytes appended since the last sync
	lastSync time.Time // SyncInterval bookkeeping
}

// Open opens (creating if needed) the log at path for appending.
// Callers replay the log BEFORE opening it for append — see Replay.
// m may be nil (metrics discarded).
func Open(path string, opts Options, m *Metrics) (*Log, error) {
	opts = opts.withDefaults()
	if m == nil {
		m = &Metrics{}
	}
	f, err := opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	return &Log{path: path, opts: opts, m: m, f: f, lastSync: time.Now()}, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// appendFrame builds the frame for one payload.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Append writes one record and applies the sync policy. Under
// SyncAlways the record is on stable storage when Append returns; the
// caller may acknowledge it. An append error means durability could
// not be promised — the caller must fail its request, not
// acknowledge.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return ErrTooLarge
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.f.Write(frame); err != nil {
		// A partially applied write is exactly the torn tail replay
		// repairs; nothing to clean up here, but the record is not
		// durable.
		return fmt.Errorf("wal: append: %w", err)
	}
	l.dirty = true
	l.m.Appends.Add(1)
	l.m.AppendedBytes.Add(int64(len(frame)))
	switch l.opts.Sync {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.syncLocked()
		}
	}
	return nil
}

// Sync forces an fsync barrier.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLocked flushes with l.mu held.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.m.Syncs.Add(1)
	l.m.SyncNanos.Add(time.Since(start).Nanoseconds())
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Checkpoint empties the log: its records are covered by a snapshot
// the caller just persisted, so replaying them again is pure waste.
// The replacement is atomic (temp + fsync + rename); a crash at any
// point leaves either the full old log (replay re-applies covered
// records, the apply callback skips them) or the new empty one. The
// log stays open for further appends.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	fs := l.opts.FS
	tmpPath := l.path + ".ckpt"
	tmp, err := fs.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fs.Remove(tmpPath)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpPath)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := fs.Rename(tmpPath, l.path); err != nil {
		fs.Remove(tmpPath)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	// Swap the append handle onto the fresh file; the old handle
	// references the unlinked inode.
	f, err := fs.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint reopen: %w", err)
	}
	l.f.Close()
	l.f = f
	l.dirty = false
	l.m.Checkpoints.Add(1)
	return nil
}

// Close syncs and closes the log. Further appends fail with
// ErrClosed. Closing twice is an error-free no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// ParseFrames walks data and returns the payloads of every complete,
// CRC-valid frame before the first bad one, plus the byte offset of
// that first bad frame (== len(data) when the log is wholly valid).
// It is the pure core of Replay and the fuzzing target: whatever the
// input, it returns — no panics, no allocation beyond the payload
// slice headers (payloads alias data).
func ParseFrames(data []byte) (payloads [][]byte, goodLen int) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return payloads, off
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > MaxRecord || len(data)-off-frameHeader < n {
			return payloads, off
		}
		want := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != want {
			return payloads, off
		}
		payloads = append(payloads, payload)
		off += frameHeader + n
	}
}

// Replay reads the log at path and applies every valid record in
// order. A missing file is an empty log. A torn tail — the residue of
// a crash mid-append or mid-flush — is truncated off the file (and
// counted), never an error: every record before it is applied, and
// nothing after a tear can be valid. An apply error aborts the replay
// and is returned; the file is left untouched for the operator.
// Replay happens before Open, so no lock is needed.
func Replay(fs iofault.FS, path string, m *Metrics, apply func(payload []byte) error) (n int, err error) {
	if fs == nil {
		fs = iofault.OS()
	}
	if m == nil {
		m = &Metrics{}
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	payloads, goodLen := ParseFrames(data)
	for _, p := range payloads {
		if err := apply(p); err != nil {
			return n, fmt.Errorf("wal: replaying %s record %d: %w", path, n, err)
		}
		n++
	}
	m.Replayed.Add(int64(n))
	if goodLen < len(data) {
		m.TornTails.Add(1)
		m.TruncatedBytes.Add(int64(len(data) - goodLen))
		if terr := fs.Truncate(path, int64(goodLen)); terr != nil {
			return n, fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
		}
	}
	return n, nil
}
