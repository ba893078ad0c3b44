package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"github.com/maps-sim/mapsim/internal/sweep"
)

// The result replies are assembled from the encodings the store kept
// at Put (store.Encoded), so a stored *sim.Result is never encoded
// again. The bytes are exactly what writeJSON's json.Encoder writes for
// the same value, trailing newline and HTML escaping included; the
// byte-identity tests and FuzzSweepReplyMatchesEncoder hold them to it.

// replyBufs recycles reply buffers, as encoding/json recycles its
// encoder state.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeReply writes the 200 reply that appendTo appends to a recycled
// buffer. When appendTo fails, writeJSON writes v instead, failing as
// encoding/json does.
func writeReply(w http.ResponseWriter, v any, appendTo func([]byte) ([]byte, error)) {
	bp := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(bp)
	body, err := appendTo((*bp)[:0])
	if err != nil {
		writeJSON(w, http.StatusOK, v)
		return
	}
	*bp = body
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// appendSweepResult appends res's encoding and a newline to buf.
// encoded(i) returns the kept encoding of point i's Result, or nil; a
// point without one, and the geomeans, are encoded by encoding/json.
func appendSweepResult(buf []byte, res *sweep.Result, encoded func(i int) []byte) ([]byte, error) {
	buf = append(buf, `{"points":`...)
	if res.Points == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i := range res.Points {
			if i > 0 {
				buf = append(buf, ',')
			}
			var err error
			if buf, err = appendPointResult(buf, &res.Points[i], encoded(i)); err != nil {
				return nil, err
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"total":`...)
	buf = strconv.AppendInt(buf, int64(res.Total), 10)
	buf = append(buf, `,"done":`...)
	buf = strconv.AppendInt(buf, int64(res.Done), 10)
	buf = append(buf, `,"deduped":`...)
	buf = strconv.AppendInt(buf, int64(res.Deduped), 10)
	if len(res.Geomeans) > 0 {
		data, err := json.Marshal(res.Geomeans)
		if err != nil {
			return nil, err
		}
		buf = append(buf, `,"geomeans":`...)
		buf = append(buf, data...)
	}
	buf = append(buf, `,"wall_ns":`...)
	buf = strconv.AppendInt(buf, int64(res.Wall), 10)
	return append(buf, "}\n"...), nil
}

// appendPointResult appends p's encoding, splicing data as its Result
// when it is not nil.
func appendPointResult(buf []byte, p *sweep.PointResult, data []byte) ([]byte, error) {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(p.Index), 10)
	buf = append(buf, `,"benchmark":`...)
	buf = appendString(buf, p.Benchmark)
	buf = append(buf, `,"secure":`...)
	buf = strconv.AppendBool(buf, p.Secure)
	if p.LLCBytes != 0 {
		buf = append(buf, `,"llc_bytes":`...)
		buf = strconv.AppendInt(buf, int64(p.LLCBytes), 10)
	}
	if p.MetaBytes != 0 {
		buf = append(buf, `,"meta_bytes":`...)
		buf = strconv.AppendInt(buf, int64(p.MetaBytes), 10)
	}
	for _, f := range [...]struct{ name, v string }{
		{`,"content":`, p.Content}, {`,"policy":`, p.Policy}, {`,"partition":`, p.Partition},
	} {
		if f.v != "" {
			buf = append(buf, f.name...)
			buf = appendString(buf, f.v)
		}
	}
	if p.PartialWrites {
		buf = append(buf, `,"partial_writes":true`...)
	}
	buf = append(buf, `,"result":`...)
	if data == nil {
		var err error
		if data, err = json.Marshal(p.Result); err != nil {
			return nil, err
		}
	}
	buf = append(buf, data...)
	if p.Cached {
		buf = append(buf, `,"cached":true`...)
	}
	if p.Worker != "" {
		buf = append(buf, `,"worker":`...)
		buf = appendString(buf, p.Worker)
	}
	return append(buf, '}'), nil
}

// appendJobResult appends the encoding of JobResult{ID: id, Type: typ}
// with field ("run" or "suite") set to the value data encodes, and a
// newline.
func appendJobResult(buf []byte, id, typ, field string, data []byte) []byte {
	buf = append(buf, `{"id":`...)
	buf = appendString(buf, id)
	buf = append(buf, `,"type":`...)
	buf = appendString(buf, typ)
	buf = append(buf, `,"`...)
	buf = append(buf, field...)
	buf = append(buf, `":`...)
	buf = append(buf, data...)
	return append(buf, "}\n"...)
}

// appendString appends s as encoding/json writes it. Printable ASCII
// that needs no escaping is copied; anything else is left to
// json.Marshal, which escapes HTML as json.Encoder does by default.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			data, _ := json.Marshal(s) // a string always encodes
			return append(buf, data...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
