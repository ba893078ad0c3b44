// Package store is mapsd's persistent, tiered, content-addressed
// result store. It layers three tiers under one Get/Put surface, all
// keyed by the canonical config hash from internal/results:
//
//	tier 0  memory  the existing results.Cache LRU — fastest, dies
//	                with the process
//	tier 1  disk    append-only segment logs under Options.Dir, one
//	                framed record (length, CRC-32, key, versioned +
//	                checksummed JSON envelope) per stored result;
//	                corrupt records are quarantined, not fatal, and a
//	                size-capped GC evicts the least recently accessed
//	                entries past Options.MaxBytes and reclaims segments
//	                that are at most half live
//	tier 2  peers   other mapsd daemons consulted over HTTP
//	                (GET /v1/store/{key}) on a local miss, so a fleet
//	                shares results instead of recomputing them
//
// A hit in a lower tier back-fills the tiers above it, so repeated
// access migrates hot results toward memory. Every disk and peer
// failure mode degrades to a miss — the daemon recomputes instead of
// erroring — which the store.get / store.put / store.peer fault
// points let chaos tests prove (docs/ROBUSTNESS.md).
//
// The on-disk and on-wire unit is the Envelope (see DESIGN.md §7):
// the payload is the result's plain JSON, framed with a format
// version, the content key, a kind tag selecting the Go type to
// decode into, and a SHA-256 payload checksum, so a stored result can
// be validated byte-for-byte years later or after a network hop.
//
// A stored value is encoded once. The memory tier keeps
// json.Marshal(value) from Put beside the value; the disk writer and
// Envelope frame those bytes, a disk or peer hit keeps the verified
// payload, and Encoded lends them to mapsd's result replies for the
// exact value they encode. Stored values must not change after Put.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
)

// Version is the envelope format version this build reads and
// writes. Decode rejects (and the disk tier quarantines) any other
// version rather than guessing at a foreign layout.
const Version = 1

// Envelope kinds: which Go type the payload decodes into.
const (
	// KindRun frames a *sim.Result.
	KindRun = "run"
	// KindSuite is retired: it framed a suite's aggregate, which
	// earlier builds stored under a suite key of their own. A suite
	// now runs as a sweep whose runs are stored one by one, and
	// nothing computes a suite key, so such a record is never looked
	// up. Its frame still decodes, so a segment that holds one opens
	// as before; Value refuses it.
	KindSuite = "suite"
)

// ErrCorrupt is the sentinel wrapped by every Decode failure that
// means "these bytes are not a valid envelope" — truncation, version
// skew, checksum mismatch, or a key that doesn't match its frame. The
// disk tier quarantines on it instead of failing the lookup.
var ErrCorrupt = errors.New("store: corrupt envelope")

// corrupt wraps a detail message in the ErrCorrupt sentinel.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Envelope frames one stored result on disk and on the wire.
type Envelope struct {
	// Version is the format version (see the package constant).
	Version int `json:"version"`
	// Key is the content address the payload was stored under; Decode
	// verifies it is well-formed and callers verify it matches the key
	// they asked for, so a renamed file or a confused peer can never
	// serve the wrong result.
	Key string `json:"key"`
	// Kind selects the payload's Go type: KindRun, or the retired
	// KindSuite.
	Kind string `json:"kind"`
	// Created records when the envelope was encoded (informational).
	Created time.Time `json:"created"`
	// Checksum is the hex SHA-256 of the raw Payload bytes.
	Checksum string `json:"checksum"`
	// Payload is the result's plain JSON encoding.
	Payload json.RawMessage `json:"payload"`
}

// ValidKey reports whether k is a well-formed content address: the
// lowercase-hex SHA-256 the results package produces. Everything that
// touches the filesystem or the HTTP path namespace checks this
// first, so a hostile key can never escape the store directory.
func ValidKey(k results.Key) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Encode frames value — a *sim.Result — into an envelope's JSON bytes
// under key. Any other type is an error: the store only persists what
// it knows how to decode again.
func Encode(key results.Key, value any) ([]byte, error) {
	return encodePayload(key, value, nil)
}

// encodePayload is Encode for a value whose encoding, json.Marshal(value), the
// caller may already hold: a non-nil payload is framed as it is.
func encodePayload(key results.Key, value any, payload []byte) ([]byte, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	if _, ok := value.(*sim.Result); !ok {
		return nil, fmt.Errorf("store: cannot encode %T (want *sim.Result)", value)
	}
	if payload == nil {
		var err error
		if payload, err = json.Marshal(value); err != nil {
			return nil, fmt.Errorf("store: encode payload: %w", err)
		}
	}
	sum := sha256.Sum256(payload)
	created, err := time.Now().UTC().MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("store: encode created: %w", err)
	}
	// The bytes json.Marshal(Envelope{...}) produces, field for field,
	// assembled directly: json.Marshal would re-scan the payload it
	// just produced to compact it again, most of a put's CPU.
	buf := make([]byte, 0, len(payload)+256)
	buf = append(buf, `{"version":`...)
	buf = strconv.AppendInt(buf, Version, 10)
	buf = append(buf, `,"key":"`...)
	buf = append(buf, key...)
	buf = append(buf, `","kind":"`...)
	buf = append(buf, KindRun...)
	buf = append(buf, `","created":`...)
	buf = append(buf, created...)
	buf = append(buf, `,"checksum":"`...)
	buf = hex.AppendEncode(buf, sum[:])
	buf = append(buf, `","payload":`...)
	buf = append(buf, payload...)
	return append(buf, '}'), nil
}

// Decode parses and validates envelope bytes laid out as Encode writes
// them: the current format version, a valid key, a known kind, a
// creation time, and a payload whose SHA-256 matches the recorded
// checksum. Every failure wraps ErrCorrupt, naming the field that
// failed, so callers can quarantine rather than crash. The payload
// (aliasing data) is not scanned here: Value parses it, and the disk
// tier checks it is JSON before serving it unparsed.
func Decode(data []byte) (*Envelope, error) {
	p, ok := bytes.CutPrefix(data, encodedPrefix)
	if !ok {
		return nil, corrupt("not a version %d envelope", Version)
	}
	if len(p) < keyLen || !ValidKey(results.Key(p[:keyLen])) {
		return nil, corrupt("invalid key")
	}
	env := &Envelope{Version: Version, Key: string(p[:keyLen])}
	var kind, created, sum []byte
	if p, ok = bytes.CutPrefix(p[keyLen:], []byte(`","kind":"`)); !ok {
		return nil, corrupt("no kind")
	}
	if kind, p, ok = bytes.Cut(p, []byte(`","created":"`)); !ok || (string(kind) != KindRun && string(kind) != KindSuite) {
		return nil, corrupt("bad kind or no created time")
	}
	if created, p, ok = bytes.Cut(p, []byte(`","checksum":"`)); !ok || bytes.ContainsAny(created, `"\`) || env.Created.UnmarshalText(created) != nil {
		return nil, corrupt("bad created time or no checksum")
	}
	if sum, p, ok = bytes.Cut(p, []byte(`","payload":`)); !ok || len(sum) != 2*sha256.Size {
		return nil, corrupt("bad checksum or no payload")
	}
	if len(p) < 2 || p[len(p)-1] != '}' {
		return nil, corrupt("empty or unterminated payload")
	}
	env.Kind, env.Checksum, env.Payload = string(kind), string(sum), p[:len(p)-1]
	got := sha256.Sum256(env.Payload)
	if hex.EncodeToString(got[:]) != env.Checksum {
		return nil, corrupt("checksum mismatch (payload %x, recorded %s)", got, env.Checksum)
	}
	return env, nil
}

// encodedPrefix opens every envelope Encode writes.
var encodedPrefix = []byte(`{"version":` + strconv.Itoa(Version) + `,"key":"`)

// Value decodes the payload into its Go type, *sim.Result for
// KindRun. The retired KindSuite is refused by name.
func (e *Envelope) Value() (any, error) {
	switch e.Kind {
	case KindRun:
		v := new(sim.Result)
		if err := v.UnmarshalJSON(e.Payload); err != nil {
			return nil, corrupt("run payload: %v", err)
		}
		return v, nil
	case KindSuite:
		return nil, fmt.Errorf("store: %q envelopes are retired: a suite is stored as its runs", e.Kind)
	default:
		return nil, corrupt("unknown kind %q", e.Kind)
	}
}
