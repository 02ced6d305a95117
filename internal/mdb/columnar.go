package mdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"emap/internal/synth"
)

// Columnar snapshot format (version 2, little-endian), the one image a
// store is saved as, loaded from and shipped in. The layout is designed
// to be served straight out of an mmap region: fixed-size tables, 8-byte
// aligned per-record columns, and derived data (block sums) stored
// next to the counts so a cold scan touches only the pages it reads.
//
//	header (64 B)
//	  magic "EMAPCOL2" | u32 version=2 | u32 blockLen | u32 nRecords
//	  u32 nSets | u64 indexOff | u64 setsOff | u64 fileSize
//	  u32 flags | 8 B reserved | u32 headerCRC
//	data region (8-aligned per-record columns)
//	  int16 counts ·· int64 bsum ·· int64 bsumSq ·· id bytes
//	record index @ indexOff (64 B/record)
//	  u64 countsOff | u64 bsumOff | u64 idOff | u32 nSamples | u32 idLen
//	  f64 scale | i64 onset | i32 class | i32 archetype | u32 dataCRC | u32 rsvd
//	set table @ setsOff (20 B/set)
//	  u32 id | u32 recordIdx | u32 start | u32 length
//	  u8 anomalous | u8 class | u16 archetype
//	trailer
//	  u32 tablesCRC  (over record index + set table)
//
// Integrity: headerCRC covers the header, tablesCRC covers both
// tables, and each record's dataCRC covers its counts AND block-sum
// bytes. The eager loader verifies all three; the mmap loader verifies
// header + tables only, so opening a multi-gigabyte snapshot does not
// page the whole file in (the data region is validated by bounds, not
// by checksum — a flipped bit there can skew a score, never corrupt
// memory).
const (
	columnarMagic   = "EMAPCOL2"
	columnarVersion = 2
	headerSize      = 64
	indexEntrySize  = 64
	setEntrySize    = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errNotColumnar refuses an image without the columnar magic. The one
// such image a store ever wrote is a gob snapshot, which only the
// conversion tool still reads.
var errNotColumnar = errors.New("mdb: not a columnar (" + columnarMagic + ") snapshot; convert a gob snapshot with `emap-mdb convert -in OLD -out NEW`")

// hostLittleEndian reports whether the running machine stores integers
// little-endian; only then may mapped bytes be aliased as
// []int16/[]int64 without decoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// validScale reports whether scale can be a stored record's µV per
// count: positive, finite, and on the float32 grid the wire carries it
// on — what both loaders demand of an image.
func validScale(scale float64) bool {
	return scale > 0 && !math.IsInf(scale, 0) && scale == float64(float32(scale))
}

// encodeColumnar serialises one epoch into the columnar v2 byte image.
func encodeColumnar(v *view) ([]byte, error) {
	countsOff := make([]uint64, len(v.recs))
	bsumOff := make([]uint64, len(v.recs))
	idOff := make([]uint64, len(v.recs))

	cur := uint64(headerSize)
	for i, rec := range v.recs {
		id := rec.ID
		if len(id) == 0 || len(id) > math.MaxUint16 {
			return nil, fmt.Errorf("mdb: record ID %q not encodable", id)
		}
		c := rec.q
		cur = align8(cur)
		countsOff[i] = cur
		cur += uint64(2 * len(c.counts))
		cur = align8(cur)
		bsumOff[i] = cur
		cur += uint64(16 * len(c.bsum))
		idOff[i] = cur
		cur += uint64(len(id))
	}
	indexOff := align8(cur)
	setsOff := indexOff + uint64(indexEntrySize*len(v.recs))
	fileSize := setsOff + uint64(setEntrySize*len(v.sets)) + 4

	buf := make([]byte, fileSize)
	le := binary.LittleEndian

	for i, rec := range v.recs {
		id := rec.ID
		c := rec.q

		dataStart := countsOff[i]
		putCounts(buf[countsOff[i]:], c.counts)
		for j, s := range c.bsum {
			le.PutUint64(buf[bsumOff[i]+uint64(8*j):], uint64(s))
		}
		sqOff := bsumOff[i] + uint64(8*len(c.bsum))
		for j, s := range c.bsumSq {
			le.PutUint64(buf[sqOff+uint64(8*j):], uint64(s))
		}
		copy(buf[idOff[i]:], id)
		dataEnd := idOff[i]

		e := buf[indexOff+uint64(indexEntrySize*i):]
		le.PutUint64(e[0:], countsOff[i])
		le.PutUint64(e[8:], bsumOff[i])
		le.PutUint64(e[16:], idOff[i])
		le.PutUint32(e[24:], uint32(len(c.counts)))
		le.PutUint32(e[28:], uint32(len(id)))
		le.PutUint64(e[32:], math.Float64bits(c.scale))
		le.PutUint64(e[40:], uint64(rec.Onset))
		le.PutUint32(e[48:], uint32(int32(rec.Class)))
		le.PutUint32(e[52:], uint32(int32(rec.Archetype)))
		le.PutUint32(e[56:], crc32.Checksum(buf[dataStart:dataEnd], castagnoli))
	}

	for i, set := range v.sets {
		rec, ok := v.record(set.RecordID)
		if !ok {
			return nil, fmt.Errorf("mdb: signal-set %d references missing record %q", set.ID, set.RecordID)
		}
		if set.Start < 0 || set.Length < 0 || set.Start > math.MaxUint32 || set.Length > math.MaxUint32 {
			return nil, fmt.Errorf("mdb: signal-set %d bounds not encodable", set.ID)
		}
		e := buf[setsOff+uint64(setEntrySize*i):]
		le.PutUint32(e[0:], uint32(set.ID))
		le.PutUint32(e[4:], uint32(rec.ord))
		le.PutUint32(e[8:], uint32(set.Start))
		le.PutUint32(e[12:], uint32(set.Length))
		if set.Anomalous {
			e[16] = 1
		}
		e[17] = uint8(set.Class)
		le.PutUint16(e[18:], uint16(set.Archetype))
	}

	copy(buf[0:8], columnarMagic)
	le.PutUint32(buf[8:], columnarVersion)
	le.PutUint32(buf[12:], qBlockLen)
	le.PutUint32(buf[16:], uint32(len(v.recs)))
	le.PutUint32(buf[20:], uint32(len(v.sets)))
	le.PutUint64(buf[24:], indexOff)
	le.PutUint64(buf[32:], setsOff)
	le.PutUint64(buf[40:], fileSize)
	le.PutUint32(buf[60:], crc32.Checksum(buf[:60], castagnoli))

	tablesEnd := setsOff + uint64(setEntrySize*len(v.sets))
	le.PutUint32(buf[tablesEnd:], crc32.Checksum(buf[indexOff:tablesEnd], castagnoli))
	return buf, nil
}

// SaveColumnar writes the snapshot's epoch to w in the columnar v2
// format: every record's counts, block sums and scale as held.
func (sn Snapshot) SaveColumnar(w io.Writer) error {
	buf, err := encodeColumnar(sn.ensure())
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// columnarHeader is the decoded, validated fixed header.
type columnarHeader struct {
	nRecords, nSets    uint32
	indexOff, setsOff  uint64
	fileSize, dataSize uint64
}

// parseColumnarHeader validates everything that can be checked from
// the fixed header alone, before any allocation proportional to the
// claimed counts: sizes are cross-checked against the actual byte
// count, so a hostile header cannot make the loader over-allocate.
func parseColumnarHeader(data []byte) (columnarHeader, error) {
	var h columnarHeader
	if len(data) >= len(columnarMagic) && string(data[:len(columnarMagic)]) != columnarMagic {
		return h, errNotColumnar
	}
	if len(data) < headerSize+4 {
		return h, fmt.Errorf("mdb: columnar snapshot truncated (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != columnarVersion {
		return h, fmt.Errorf("mdb: columnar version %d unsupported (want %d)", v, columnarVersion)
	}
	if bl := le.Uint32(data[12:]); bl != qBlockLen {
		return h, fmt.Errorf("mdb: columnar block length %d unsupported (want %d)", bl, qBlockLen)
	}
	if got, want := crc32.Checksum(data[:60], castagnoli), le.Uint32(data[60:]); got != want {
		return h, fmt.Errorf("mdb: columnar header checksum mismatch")
	}
	h.nRecords = le.Uint32(data[16:])
	h.nSets = le.Uint32(data[20:])
	h.indexOff = le.Uint64(data[24:])
	h.setsOff = le.Uint64(data[32:])
	h.fileSize = le.Uint64(data[40:])
	if h.fileSize != uint64(len(data)) {
		return h, fmt.Errorf("mdb: columnar size mismatch: header says %d bytes, have %d", h.fileSize, len(data))
	}
	// The tables must tile the tail of the file exactly; this pins
	// nRecords and nSets against the real byte count.
	if h.indexOff%8 != 0 || h.indexOff < headerSize ||
		h.setsOff != h.indexOff+uint64(indexEntrySize)*uint64(h.nRecords) ||
		h.fileSize != h.setsOff+uint64(setEntrySize)*uint64(h.nSets)+4 {
		return h, fmt.Errorf("mdb: columnar table layout inconsistent")
	}
	tablesEnd := h.fileSize - 4
	if got, want := crc32.Checksum(data[h.indexOff:tablesEnd], castagnoli), le.Uint32(data[tablesEnd:]); got != want {
		return h, fmt.Errorf("mdb: columnar table checksum mismatch")
	}
	h.dataSize = h.indexOff
	return h, nil
}

// parseColumnar decodes a columnar image into a store. With mref nil the loader runs eagerly: columns are copied into the heap,
// block sums are recomputed from the counts, and every record's
// dataCRC is verified — the portable, fully-checked path (fuzzing
// targets it). With mref set, the column slices alias the mapped
// bytes, records start cold, and mref keeps the mapping alive for as
// long as any record does.
func parseColumnar(data []byte, mref *mmapRef) (*Store, error) {
	h, err := parseColumnarHeader(data)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	s := NewStore()
	s.recs = make([]*Record, 0, h.nRecords)
	s.sets = make([]*SignalSet, 0, h.nSets)

	for i := uint64(0); i < uint64(h.nRecords); i++ {
		e := data[h.indexOff+i*indexEntrySize:]
		countsOff := le.Uint64(e[0:])
		bsumOff := le.Uint64(e[8:])
		idOff := le.Uint64(e[16:])
		nSamples := uint64(le.Uint32(e[24:]))
		idLen := uint64(le.Uint32(e[28:]))
		scale := math.Float64frombits(le.Uint64(e[32:]))
		onset := int64(le.Uint64(e[40:]))
		class := int32(le.Uint32(e[48:]))
		archetype := int32(le.Uint32(e[52:]))
		dataCRC := le.Uint32(e[56:])

		nb := nSamples/qBlockLen + 1
		// Bound every offset by dataSize BEFORE forming sums: offsets
		// are then < 2^63 and the 32-bit lengths cannot overflow the
		// additions below.
		if countsOff < headerSize || countsOff > h.dataSize || countsOff%8 != 0 ||
			bsumOff > h.dataSize || bsumOff%8 != 0 ||
			idOff < headerSize || idOff > h.dataSize || idLen == 0 ||
			countsOff+2*nSamples > bsumOff || bsumOff+16*nb > h.dataSize ||
			idOff+idLen > h.dataSize {
			return nil, fmt.Errorf("mdb: columnar record %d columns out of bounds", i)
		}
		if !validScale(scale) {
			return nil, fmt.Errorf("mdb: columnar record %d scale %v invalid", i, scale)
		}
		id := string(data[idOff : idOff+idLen])
		if _, dup := s.ix.m.Load(id); dup {
			return nil, fmt.Errorf("mdb: columnar snapshot has duplicate record %q", id)
		}

		countsRaw := data[countsOff : countsOff+2*nSamples]
		bsumRaw := data[bsumOff : bsumOff+8*nb]
		bsumSqRaw := data[bsumOff+8*nb : bsumOff+16*nb]

		var q *quantPayload
		if mref != nil && hostLittleEndian {
			q = &quantPayload{
				scale:  scale,
				counts: aliasInt16(countsRaw),
				bsum:   aliasInt64(bsumRaw),
				bsumSq: aliasInt64(bsumSqRaw),
				mapped: true,
				mref:   mref,
			}
		} else {
			if got := crc32.Checksum(data[countsOff:bsumOff+16*nb], castagnoli); got != dataCRC {
				return nil, fmt.Errorf("mdb: columnar record %q data checksum mismatch", id)
			}
			counts := make([]int16, nSamples)
			for j := range counts {
				counts[j] = int16(le.Uint16(countsRaw[2*j:]))
			}
			// Recompute the block sums rather than decode them: the
			// eager path pays the pass anyway, and it makes the
			// in-memory sums consistent with the counts by
			// construction.
			q = newQuantPayload(counts, scale)
		}

		rec := &Record{
			ID:        id,
			Class:     synth.Class(class),
			Archetype: int(archetype),
			Onset:     int(onset),
		}
		s.add(rec, q)
	}

	for i := uint64(0); i < uint64(h.nSets); i++ {
		e := data[h.setsOff+i*setEntrySize:]
		recordIdx := le.Uint32(e[4:])
		if uint64(recordIdx) >= uint64(h.nRecords) {
			return nil, fmt.Errorf("mdb: columnar signal-set %d references record index %d of %d", i, recordIdx, h.nRecords)
		}
		rec := s.recs[recordIdx]
		start := uint64(le.Uint32(e[8:]))
		length := uint64(le.Uint32(e[12:]))
		if start+length > uint64(rec.Len()) {
			return nil, fmt.Errorf("mdb: columnar signal-set %d exceeds record %q", i, rec.ID)
		}
		if length > MaxSliceLen {
			return nil, fmt.Errorf("mdb: columnar signal-set %d is %d samples long (at most %d)", i, length, MaxSliceLen)
		}
		s.sets = append(s.sets, &SignalSet{
			ID:        int(le.Uint32(e[0:])),
			RecordID:  rec.ID,
			Start:     int(start),
			Length:    int(length),
			Anomalous: e[16] != 0,
			Class:     synth.Class(e[17]),
			Archetype: int(le.Uint16(e[18:])),
		})
	}

	s.publish()
	return s, nil
}

// putCounts writes counts as the little-endian int16 column at the
// head of dst, which starts 2-aligned (columns are 8-aligned in the
// image) and holds at least 2·len(counts) bytes. On a little-endian
// host the column is the counts' memory, so it moves with one copy
// through the view the mmap loader reads it back with.
func putCounts(dst []byte, counts []int16) {
	if hostLittleEndian {
		copy(aliasInt16(dst[:2*len(counts)]), counts)
	} else {
		putCountsPortable(dst, counts)
	}
}

// putCountsPortable is correct on every host and defines the column.
func putCountsPortable(dst []byte, counts []int16) {
	for j, cnt := range counts {
		binary.LittleEndian.PutUint16(dst[2*j:], uint16(cnt))
	}
}

// aliasInt16 reinterprets little-endian bytes as []int16 without
// copying. Callers guarantee 2-byte alignment and little-endian host.
func aliasInt16(b []byte) []int16 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&b[0])), len(b)/2)
}

// aliasInt64 reinterprets little-endian bytes as []int64 without
// copying. Callers guarantee 8-byte alignment and little-endian host.
func aliasInt64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// LoadColumnar decodes a columnar snapshot from r eagerly (heap
// columns, full checksum verification). File-backed opens that want
// the mmap cold tier go through LoadFile instead.
func LoadColumnar(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mdb: reading columnar snapshot: %w", err)
	}
	return parseColumnar(data, nil)
}
