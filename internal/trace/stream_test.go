package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// --- streaming format ---

func randomRecords(n int, seed uint64) []Record {
	s := seed
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	recs := make([]Record, n)
	for i := range recs {
		v := next()
		recs[i] = Record{
			Addr:  (v % (1 << 20)) * 64,
			Write: v&(1<<40) != 0,
			Class: uint8(v>>41) % 6,
			Cost:  uint8(v>>50)%5 + 1,
			Gap:   uint32(v>>32)%16 + 1,
		}
	}
	return recs
}

func writeStream(t *testing.T, recs []Record, h StreamHeader, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h, gz)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

func drainStream(t *testing.T, data []byte) (StreamHeader, []Record) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var rec Record
	for {
		err := r.Next(&rec)
		if err == io.EOF {
			return r.Header(), recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	hdr := StreamHeader{Name: "canneal", Footprint: 64 << 20}
	for _, gz := range []bool{false, true} {
		for _, n := range []int{0, 1, chunkRecords - 1, chunkRecords, chunkRecords + 1, 3*chunkRecords + 17} {
			t.Run(fmt.Sprintf("gz=%v/n=%d", gz, n), func(t *testing.T) {
				want := randomRecords(n, uint64(n)+1)
				data := writeStream(t, want, hdr, gz)
				got, recs := drainStream(t, data)
				if got != hdr {
					t.Fatalf("header %+v, want %+v", got, hdr)
				}
				if len(recs) != len(want) {
					t.Fatalf("decoded %d records, want %d", len(recs), len(want))
				}
				for i := range want {
					if recs[i] != want[i] {
						t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
					}
				}
			})
		}
	}
}

// headerLen is the encoded size of the header writeStream writes for
// a one-byte workload name: magic, flags, name length, name, footprint.
const headerLen = 4 + 1 + 2 + 1 + 8

// readUntilError drains r and returns the records it decoded before
// the first error, and that error.
func readUntilError(r *Reader) ([]Record, error) {
	var recs []Record
	var rec Record
	for {
		if err := r.Next(&rec); err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// A stream cut anywhere before its end marker must read back as
// truncation (wrapped io.ErrUnexpectedEOF), never a clean io.EOF:
// the zero-count marker is the only legitimate end. Every record
// before the cut still decodes, unchanged.
func TestStreamTruncation(t *testing.T) {
	recs := randomRecords(chunkRecords+100, 3)
	data := writeStream(t, recs, StreamHeader{Name: "w", Footprint: 4096}, false)
	secondChunk := headerLen + 4 + chunkRecords*recordSize
	for _, tc := range []struct {
		name string
		cut  int
		kept int // records that decode before the error
	}{
		{"before first chunk header", headerLen, 0},
		{"mid chunk header", headerLen + 2, 0},
		{"after addr", headerLen + 4 + 8, 0},
		{"after flags", headerLen + 4 + 9, 0},
		{"record boundary", headerLen + 4 + 30*recordSize, 30},
		{"mid record", headerLen + 4 + 30*recordSize + 7, 30},
		{"end of first chunk", secondChunk, chunkRecords},
		{"mid second chunk header", secondChunk + 2, chunkRecords},
		{"before last record", len(data) - 4 - recordSize, len(recs) - 1},
		{"before end marker", len(data) - 4, len(recs)},
		{"inside end marker", len(data) - 2, len(recs)},
		{"one byte short", len(data) - 1, len(recs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(data[:tc.cut]))
			if err != nil {
				t.Fatalf("cut %d: header rejected: %v", tc.cut, err)
			}
			got, last := readUntilError(r)
			if !errors.Is(last, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", tc.cut, last)
			}
			if len(got) != tc.kept {
				t.Fatalf("cut %d: %d records before the error, want %d", tc.cut, len(got), tc.kept)
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Fatalf("cut %d: record %d = %+v, want %+v", tc.cut, i, got[i], recs[i])
				}
			}
			// The error state must be sticky-done, not resurrect records.
			var rec Record
			if err := r.Next(&rec); err == nil {
				t.Fatalf("cut %d: Next succeeded after truncation error", tc.cut)
			}
		})
	}
}

// A gzipped stream cut or corrupted anywhere past its header is an
// error, never a clean end: that includes the gzip trailer, whose
// CRC-32 and length the reader checks after the end marker.
func TestStreamGzipTruncation(t *testing.T) {
	recs := randomRecords(chunkRecords+100, 4)
	data := writeStream(t, recs, StreamHeader{Name: "w", Footprint: 4096}, true)
	corrupt := func(i int) []byte {
		b := append([]byte(nil), data...)
		b[i] ^= 0xff
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"early payload", data[:headerLen+30], io.ErrUnexpectedEOF},
		{"mid payload", data[:len(data)/2], io.ErrUnexpectedEOF},
		{"before trailer", data[:len(data)-8], io.ErrUnexpectedEOF},
		{"mid trailer", data[:len(data)-4], io.ErrUnexpectedEOF},
		{"one byte short", data[:len(data)-1], io.ErrUnexpectedEOF},
		{"bad checksum", corrupt(len(data) - 6), gzip.ErrChecksum},
		{"bad length", corrupt(len(data) - 2), gzip.ErrChecksum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatalf("header rejected: %v", err)
			}
			if _, last := readUntilError(r); !errors.Is(last, tc.want) {
				t.Fatalf("err = %v, want %v", last, tc.want)
			}
		})
	}

	// The intact stream still ends cleanly, with every record.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got, last := readUntilError(r); last != io.EOF || len(got) != len(recs) {
		t.Fatalf("intact stream: %d records, err %v; want %d and io.EOF", len(got), last, len(recs))
	}
}

// A gzipped payload that carries bytes past its end marker is
// refused rather than silently cut short.
func TestStreamGzipDataAfterEndMarker(t *testing.T) {
	var buf bytes.Buffer
	hdr := StreamHeader{Name: "w", Footprint: 4096}
	w, err := NewWriter(&buf, hdr, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	plain := buf.Bytes()
	// Re-wrap the plain payload (the end marker) plus one stray chunk
	// header in gzip, behind a header with the gzip bit set.
	var payload bytes.Buffer
	zw := gzip.NewWriter(&payload)
	zw.Write(plain[headerLen:])
	zw.Write([]byte{1, 0, 0, 0})
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := append(append([]byte(nil), plain[:headerLen]...), payload.Bytes()...)
	data[4] |= flagGzip
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, last := readUntilError(r); last == nil || last == io.EOF || !strings.Contains(last.Error(), "after the end marker") {
		t.Fatalf("err = %v, want data after the end marker", last)
	}
}

func TestStreamTruncatedHeader(t *testing.T) {
	data := writeStream(t, nil, StreamHeader{Name: "abc", Footprint: 8192}, false)
	for _, field := range []struct {
		name       string
		start, end int // the cuts that land inside this field
	}{
		{"magic", 1, 4},
		{"flags", 4, 5},
		{"name length", 5, 7},
		{"name", 7, 10},
		{"footprint", 10, 18},
	} {
		t.Run(field.name, func(t *testing.T) {
			for cut := field.start; cut < field.end; cut++ {
				if _, err := NewReader(bytes.NewReader(data[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
				}
			}
		})
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty input: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// The header of a gzipped stream is followed by the gzip header;
	// a cut inside that one is truncation too.
	gz := writeStream(t, nil, StreamHeader{Name: "abc", Footprint: 8192}, true)
	if _, err := NewReader(bytes.NewReader(gz[:18+5])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut inside the gzip header: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// The workload name is bounded at maxNameLen bytes on both sides: the
// writer refuses a longer one, and the reader refuses a header that
// declares one before allocating for it.
func TestStreamNameLimit(t *testing.T) {
	t.Run("at limit", func(t *testing.T) {
		hdr := StreamHeader{Name: strings.Repeat("n", maxNameLen), Footprint: 64}
		if got, _ := drainStream(t, writeStream(t, nil, hdr, false)); got != hdr {
			t.Fatalf("header %+v, want %+v", got, hdr)
		}
	})
	t.Run("writer", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := NewWriter(&buf, StreamHeader{Name: strings.Repeat("n", maxNameLen+1)}, false); err == nil {
			t.Fatal("NewWriter accepted an over-long name")
		}
		if buf.Len() != 0 {
			t.Fatalf("NewWriter wrote %d bytes before refusing", buf.Len())
		}
	})
	t.Run("reader", func(t *testing.T) {
		data := []byte{'M', 'T', 'S', '1', 0, 0xff, 0xff}
		if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "max") {
			t.Fatalf("err = %v, want the name-length limit", err)
		}
	})
}

// The metadata-stream bit round-trips through the header's flags
// byte, alone and beside the gzip bit, without moving any field.
func TestStreamMetaFlag(t *testing.T) {
	recs := []Record{{Addr: 64, Write: true, Class: 2, Cost: 3}, {Addr: 128, Class: 4, Cost: 1}}
	for _, gz := range []bool{false, true} {
		hdr := StreamHeader{Name: "canneal", Meta: true}
		data := writeStream(t, recs, hdr, gz)
		want := byte(flagMeta)
		if gz {
			want |= flagGzip
		}
		if data[4] != want {
			t.Fatalf("gz=%v: flags byte %#x, want %#x", gz, data[4], want)
		}
		got, decoded := drainStream(t, data)
		if got != hdr {
			t.Fatalf("gz=%v: header %+v, want %+v", gz, got, hdr)
		}
		if len(decoded) != len(recs) || decoded[0] != recs[0] || decoded[1] != recs[1] {
			t.Fatalf("gz=%v: records %+v, want %+v", gz, decoded, recs)
		}
	}
}

// A workload stream written before the metadata bit existed (flags
// byte 0) still reads unchanged, as a non-metadata stream.
func TestStreamReadsWorkloadBytes(t *testing.T) {
	data := []byte{
		'M', 'T', 'S', '1', 0, // magic, flags
		1, 0, 'w', // name length, name
		0, 0x10, 0, 0, 0, 0, 0, 0, // footprint 4096
		1, 0, 0, 0, // one-record chunk
		0x40, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0, 0, 0, // addr 64, write, gap 7
		0, 0, 0, 0, // end marker
	}
	hdr, recs := drainStream(t, data)
	if want := (StreamHeader{Name: "w", Footprint: 4096}); hdr != want {
		t.Fatalf("header %+v, want %+v", hdr, want)
	}
	if want := (Record{Addr: 64, Write: true, Gap: 7}); len(recs) != 1 || recs[0] != want {
		t.Fatalf("records %+v, want [%+v]", recs, want)
	}
}

func TestWriterRejectsWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, StreamHeader{Name: "w", Footprint: 4096}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Fatal("Write after Close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// --- O(chunk) memory: the acceptance criterion for constant-memory
// replay. Steady-state iteration allocates nothing per record, and a
// stream far larger than any plausible chunk budget reads under a
// fixed heap bound. ---

func TestStreamNextIsAllocationFree(t *testing.T) {
	recs := randomRecords(4*chunkRecords, 5)
	data := writeStream(t, recs, StreamHeader{Name: "w", Footprint: 4096}, false)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.Next(&rec); err != nil { // warm up past any lazy init
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2*chunkRecords, func() {
		if err := r.Next(&rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f objects per record, want 0", allocs)
	}
}

// A synthesized stream of 30M records (~420 MB encoded) flows through
// writer and reader via an in-process pipe while total heap stays
// bounded: proof the path is O(chunk), independent of trace length.
func TestStreamConstantMemoryLargeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("large-stream memory test skipped in -short mode")
	}
	const n = 30_000_000
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		w, err := NewWriter(pw, StreamHeader{Name: "big", Footprint: 1 << 30}, false)
		if err != nil {
			errc <- err
			pw.CloseWithError(err)
			return
		}
		var rec Record
		for i := 0; i < n; i++ {
			rec.Addr = uint64(i%(1<<24)) * 64
			rec.Write = i%3 == 0
			rec.Gap = uint32(i%7) + 1
			if err := w.Write(rec); err != nil {
				errc <- err
				pw.CloseWithError(err)
				return
			}
		}
		err = w.Close()
		errc <- err
		pw.CloseWithError(err)
	}()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	r, err := NewReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	var count uint64
	for {
		err := r.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("decoded %d records, want %d", count, n)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Heap growth across a 420 MB stream must stay in single-digit
	// megabytes: both ends together hold only chunk-sized buffers.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 16<<20 {
		t.Fatalf("heap grew %d bytes across a %d-record stream; replay is not O(chunk)", grew, n)
	}
}

// FuzzDecodeTrace ensures arbitrary bytes never panic the trace
// decoder and that anything it accepts round-trips bit-identically
// through the writer.
func FuzzDecodeTrace(f *testing.F) {
	recs := randomRecords(10, 1)
	var plain, gz bytes.Buffer
	for dst, compress := range map[*bytes.Buffer]bool{&plain: false, &gz: true} {
		w, err := NewWriter(dst, StreamHeader{Name: "seed", Footprint: 8192}, compress)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	var meta bytes.Buffer
	w, err := NewWriter(&meta, StreamHeader{Name: "seed", Meta: true}, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(Record{Addr: r.Addr, Write: r.Write, Class: r.Class, Cost: r.Cost}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(meta.Bytes())
	f.Add([]byte{})
	f.Add([]byte("MTS1garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		var got []Record
		var rec Record
		for {
			err := r.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected payload: fine
			}
			got = append(got, rec)
			if len(got) > 1<<20 {
				return // cap fuzz memory; long valid streams are covered elsewhere
			}
		}
		// Accepted: re-encode and re-decode must reproduce the records.
		var out bytes.Buffer
		w, err := NewWriter(&out, r.Header(), false)
		if err != nil {
			t.Fatalf("re-encode header: %v", err)
		}
		for _, rc := range got {
			if err := w.Write(rc); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("re-encode close: %v", err)
		}
		r2, err := NewReader(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode header: %v", err)
		}
		var i int
		for {
			err := r2.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-decode record %d: %v", i, err)
			}
			if i >= len(got) || rec != got[i] {
				t.Fatalf("record %d changed across re-encode", i)
			}
			i++
		}
		if i != len(got) {
			t.Fatalf("re-decode yielded %d records, want %d", i, len(got))
		}
	})
}
