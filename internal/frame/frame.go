// Package frame is the one durable record format mapsd writes: a
// 4-byte little-endian payload length, a 4-byte little-endian CRC-32
// (IEEE) of the payload, then the payload. The sweep journal frames
// one JSON record per frame; the result store frames a content key
// plus its envelope (DESIGN.md §7 and §8).
//
// A frame cut short at the end of its input is torn (ErrTorn): the
// signature of a crash mid-append, which a reader truncates away. An
// absurd length or a checksum mismatch is corrupt (ErrCorrupt).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// HeaderSize is the bytes before every payload: length, then CRC-32.
const HeaderSize = 8

// ErrTorn marks a frame the input ends inside of.
var ErrTorn = errors.New("frame: torn")

// ErrCorrupt marks a frame whose length or checksum cannot be right.
var ErrCorrupt = errors.New("frame: corrupt")

// Append appends one frame to dst whose payload is the concatenation
// of parts, and returns the extended slice.
func Append(dst []byte, parts ...[]byte) []byte {
	n, sum := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// Length returns the payload length a header announces, or ErrCorrupt
// when it is zero or above limit. hdr must hold at least HeaderSize
// bytes.
func Length(hdr []byte, limit int) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || uint64(n) > uint64(limit) {
		return 0, fmt.Errorf("%w: framed length %d", ErrCorrupt, n)
	}
	return int(n), nil
}

// Decode parses the frame at the front of data and returns its
// payload (aliasing data) and the bytes the frame spans. A payload
// longer than limit is ErrCorrupt.
func Decode(data []byte, limit int) ([]byte, int, error) {
	if len(data) < HeaderSize {
		return nil, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTorn, len(data), HeaderSize)
	}
	n, err := Length(data, limit)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < HeaderSize+n {
		return nil, 0, fmt.Errorf("%w: %d payload bytes of %d", ErrTorn, len(data)-HeaderSize, n)
	}
	payload := data[HeaderSize : HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, HeaderSize + n, nil
}
