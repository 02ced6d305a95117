package proto

import (
	"encoding/binary"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the wire's byte order. Only then is an []int16's
// memory already its wire encoding, and a sample block moves with one
// copy instead of a loop.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int16Bytes views s's backing memory as bytes. Viewing int16 as bytes
// needs no alignment check (the reverse would).
func int16Bytes(s []int16) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 2*len(s))
}

// putSamples writes s as little-endian 16-bit counts into dst, which
// must hold 2·len(s) bytes.
func putSamples(dst []byte, s []int16) {
	if hostLittleEndian {
		putSamplesBulk(dst, s)
	} else {
		putSamplesPortable(dst, s)
	}
}

// getSamples reads len(dst) little-endian 16-bit counts from src, which
// must hold 2·len(dst) bytes.
func getSamples(dst []int16, src []byte) {
	if hostLittleEndian {
		getSamplesBulk(dst, src)
	} else {
		getSamplesPortable(dst, src)
	}
}

// The bulk routes are correct on little-endian hosts only; the portable
// routes are correct everywhere and define the result.

func putSamplesBulk(dst []byte, s []int16) { copy(dst[:2*len(s)], int16Bytes(s)) }

func getSamplesBulk(dst []int16, src []byte) { copy(int16Bytes(dst), src[:2*len(dst)]) }

func putSamplesPortable(dst []byte, s []int16) {
	dst = dst[:2*len(s)]
	for i, v := range s {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
	}
}

func getSamplesPortable(dst []int16, src []byte) {
	src = src[:2*len(dst)]
	for i := range dst {
		dst[i] = int16(binary.LittleEndian.Uint16(src[2*i:]))
	}
}
