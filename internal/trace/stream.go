package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// The streaming format ("MTS1") is the one on-disk trace format, so
// traces far larger than memory can be recorded and replayed in
// O(chunk) space: a small uncompressed header (a flags byte, then the
// workload name + footprint, so replay can size the simulated address
// space without scanning the file), then a chunked record payload,
// optionally gzip-compressed. Each chunk is a uint32 record count
// followed by that many fixed-width records; a zero-count chunk is
// the explicit end-of-stream marker, so silent truncation is always
// detectable — a stream that just stops is an error, never a short
// trace.

// streamMagic opens every trace file.
var streamMagic = [4]byte{'M', 'T', 'S', '1'}

const (
	// Header flag bits.
	flagGzip = 1 << 0 // the record payload is gzip-compressed
	flagMeta = 1 << 1 // a metadata-access stream (StreamHeader.Meta)

	// recordSize is the fixed on-disk size of one streaming record:
	// addr u64, flags u8, cost u8, gap u32.
	recordSize = 14

	// chunkRecords is the Writer's records-per-chunk, sized so a chunk
	// buffer stays tens of kilobytes regardless of trace length.
	chunkRecords = 4096

	// maxNameLen bounds the header's workload-name field.
	maxNameLen = 1 << 10
)

// Record is one access in a streaming trace: the workload-level
// fields replay needs (address, direction, instruction gap) plus the
// metadata classification an Access carries, so both kinds of trace
// share the one format.
type Record struct {
	// Addr is the accessed address.
	Addr uint64
	// Write distinguishes updates from fetches.
	Write bool
	// Class carries the block classification (0 for workload traces).
	Class uint8
	// Cost is the observed miss cost (0 for workload traces).
	Cost uint8
	// Gap is the instruction distance to the previous access (0 for
	// metadata traces); replay clamps it to at least 1.
	Gap uint32
}

// StreamHeader describes a streaming trace: which workload produced
// it, how much address space it spans, and which kind of stream it
// is. Replay uses Footprint to size the simulated memory layout
// without scanning the records.
type StreamHeader struct {
	// Name labels the recorded workload.
	Name string
	// Footprint is the workload's address-space span in bytes (0 for
	// metadata traces).
	Footprint uint64
	// Meta marks a metadata-access stream (`mapstrace record`): the
	// engine's counter, hash and tree accesses with their Class and
	// Cost, rather than a workload's data accesses for replay.
	Meta bool
}

// Writer emits a streaming trace. Records accumulate into fixed-size
// chunks, so writing a multi-gigabyte trace holds only one chunk in
// memory. Close writes the end-of-stream marker — a trace without one
// reads back as truncated.
type Writer struct {
	dst    *bufio.Writer
	gz     *gzip.Writer
	body   io.Writer // dst, or gz over dst
	buf    []byte
	n      int // records buffered in buf
	count  uint64
	closed bool
	err    error
}

// NewWriter writes a streaming-trace header to w and returns a Writer
// for its records. With compress set, the record payload (not the
// header) is gzip-compressed.
func NewWriter(w io.Writer, h StreamHeader, compress bool) (*Writer, error) {
	if len(h.Name) > maxNameLen {
		return nil, fmt.Errorf("trace: workload name %d bytes long, max %d", len(h.Name), maxNameLen)
	}
	dst := bufio.NewWriter(w)
	var flags byte
	if compress {
		flags |= flagGzip
	}
	if h.Meta {
		flags |= flagMeta
	}
	hdr := make([]byte, 0, 4+1+2+len(h.Name)+8)
	hdr = append(hdr, streamMagic[:]...)
	hdr = append(hdr, flags)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(h.Name)))
	hdr = append(hdr, h.Name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, h.Footprint)
	if _, err := dst.Write(hdr); err != nil {
		return nil, err
	}
	sw := &Writer{dst: dst, body: dst, buf: make([]byte, 0, chunkRecords*recordSize)}
	if compress {
		sw.gz = gzip.NewWriter(dst)
		sw.body = sw.gz
	}
	return sw, nil
}

// Write appends one record, flushing a chunk when full.
func (w *Writer) Write(rec Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	var flags byte = rec.Class << 1
	if rec.Write {
		flags |= 1
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, rec.Addr)
	w.buf = append(w.buf, flags, rec.Cost)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, rec.Gap)
	w.n++
	w.count++
	if w.n >= chunkRecords {
		w.err = w.flushChunk()
	}
	return w.err
}

// Count reports the records written so far.
func (w *Writer) Count() uint64 { return w.count }

// flushChunk writes the buffered records as one chunk.
func (w *Writer) flushChunk() error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(w.n))
	if _, err := w.body.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.body.Write(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	w.n = 0
	return nil
}

// Close flushes the final partial chunk, writes the end-of-stream
// marker, and finishes any compression stream. It does not close the
// underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if w.n > 0 {
		if err := w.flushChunk(); err != nil {
			w.err = err
			return err
		}
	}
	var marker [4]byte // zero-count chunk: explicit clean end
	if _, err := w.body.Write(marker[:]); err != nil {
		w.err = err
		return err
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			w.err = err
			return err
		}
	}
	if err := w.dst.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Reader iterates a streaming trace, metadata or workload, record by
// record in O(chunk) memory, so tooling never loads a trace whole.
type Reader struct {
	br  *bufio.Reader // record payload (past optional gzip)
	hdr StreamHeader
	gz  bool // the payload is gzip-compressed

	chunkLeft uint32 // records left in the current chunk
	done      bool

	idx uint64 // records decoded, for error context
	buf [recordSize]byte
}

// NewReader decodes a streaming-trace header from r and returns a
// Reader over its records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if magic != streamMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var fixed [3]byte // flags + name length
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("trace: truncated header: %w", noEOF(err))
	}
	flags := fixed[0]
	nameLen := binary.LittleEndian.Uint16(fixed[1:])
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: header name %d bytes long, max %d", nameLen, maxNameLen)
	}
	rest := make([]byte, int(nameLen)+8)
	if _, err := io.ReadFull(br, rest); err != nil {
		return nil, fmt.Errorf("trace: truncated header: %w", noEOF(err))
	}
	sr := &Reader{hdr: StreamHeader{
		Name:      string(rest[:nameLen]),
		Footprint: binary.LittleEndian.Uint64(rest[nameLen:]),
		Meta:      flags&flagMeta != 0,
	}}
	if flags&flagGzip != 0 {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip payload: %w", noEOF(err))
		}
		sr.br = bufio.NewReaderSize(gz, 1<<16)
		sr.gz = true
	} else {
		sr.br = br
	}
	return sr, nil
}

// Header returns the trace's header.
func (r *Reader) Header() StreamHeader { return r.hdr }

// Next decodes the next record into rec. It returns io.EOF at a clean
// end of stream; a stream that stops early returns an error wrapping
// io.ErrUnexpectedEOF with the index of the record that failed.
func (r *Reader) Next(rec *Record) error {
	if r.done {
		return io.EOF
	}
	for r.chunkLeft == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
			return r.truncated(err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 { // explicit end-of-stream marker
			r.done = true
			return r.end()
		}
		r.chunkLeft = n
	}
	if _, err := io.ReadFull(r.br, r.buf[:]); err != nil {
		return r.truncated(err)
	}
	r.chunkLeft--
	rec.Addr = binary.LittleEndian.Uint64(r.buf[0:8])
	flags := r.buf[8]
	rec.Write = flags&1 != 0
	rec.Class = flags >> 1
	rec.Cost = r.buf[9]
	rec.Gap = binary.LittleEndian.Uint32(r.buf[10:14])
	r.idx++
	return nil
}

// end finishes a stream at its end marker. A gzip payload is read
// one byte further, so gzip checks its CRC-32 and length trailer: a
// cut or corrupt trailer, or records past the marker, are errors, not
// a clean end.
func (r *Reader) end() error {
	if !r.gz {
		return io.EOF
	}
	switch _, err := r.br.ReadByte(); err {
	case io.EOF:
		return io.EOF
	case nil:
		return fmt.Errorf("trace: data after the end marker at record %d", r.idx)
	default:
		return fmt.Errorf("trace: gzip trailer after record %d: %w", r.idx, noEOF(err))
	}
}

// truncated wraps a payload read failure with record-position context,
// upgrading EOFs so the result never looks like a clean end.
func (r *Reader) truncated(err error) error {
	r.done = true
	return fmt.Errorf("trace: truncated stream after record %d: %w", r.idx, noEOF(err))
}

// noEOF upgrades a clean-looking io.EOF to io.ErrUnexpectedEOF so that
// errors.Is reports truncation, not end-of-stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
