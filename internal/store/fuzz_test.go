package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/maps-sim/mapsim/internal/frame"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
)

// FuzzDecodeEnvelope throws arbitrary bytes at the envelope decoder —
// the bytes a failing disk or a hostile peer could hand us. The
// invariant is total robustness: Decode never panics, and anything it
// accepts satisfies the full frame contract (current version, valid
// key, known kind, checksum-verified payload that decodes).
func FuzzDecodeEnvelope(f *testing.F) {
	sum := sha256.Sum256([]byte("fuzz-seed"))
	key := results.Key(hex.EncodeToString(sum[:]))
	if valid, err := Encode(key, &sim.Result{Benchmark: "fft", Instructions: 1000, Cycles: 3000}); err != nil {
		f.Fatal(err)
	} else {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1,"kind":"run","payload":{}}`))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return
		}
		if env.Version != Version {
			t.Fatalf("accepted version %d", env.Version)
		}
		if !ValidKey(results.Key(env.Key)) {
			t.Fatalf("accepted invalid key %q", env.Key)
		}
		if env.Kind != KindRun && env.Kind != KindSuite {
			t.Fatalf("accepted unknown kind %q", env.Kind)
		}
		payloadSum := sha256.Sum256(env.Payload)
		if hex.EncodeToString(payloadSum[:]) != env.Checksum {
			t.Fatal("accepted checksum mismatch")
		}
		// An accepted envelope must also decode; Value may still reject
		// (payload shape vs kind), but never panic.
		if _, err := env.Value(); err != nil {
			_ = err // acceptable: frame-valid, payload-shaped wrong
		}
	})
}

// FuzzOpenSegment makes arbitrary bytes the newest segment — what a
// crash, a failing disk or a stray write could leave — then opens the
// store and reads back every key it indexed. Nothing may panic, and
// each Get either serves the value of a record that decodes under
// that key or counts exactly one quarantine.
func FuzzOpenSegment(f *testing.F) {
	var seg []byte
	for i, label := range []string{"a", "b", "a"} {
		sum := sha256.Sum256([]byte(label))
		k := results.Key(hex.EncodeToString(sum[:]))
		env, err := Encode(k, &sim.Result{Benchmark: "fft", Instructions: uint64(1000 + i)})
		if err != nil {
			f.Fatal(err)
		}
		seg = frame.Append(seg, []byte(k), env)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-7])
	flipped := append([]byte{}, seg...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(nil))
	f.Add(frame.Append(nil, []byte("not a key"), []byte("{}")))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentsDir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Memory: results.New(1)})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		s.dmu.Lock()
		indexed := make(map[results.Key]diskEntry, len(s.entries))
		for k, e := range s.entries {
			indexed[k] = e
		}
		s.dmu.Unlock()
		for k, e := range indexed {
			q0 := s.Stats().Quarantined
			v, ok := s.Get(context.Background(), k)
			q := s.Stats().Quarantined - q0
			switch {
			case ok && q == 0:
				_, env, err := decodeRecord(k, data[e.off:e.off+e.size])
				if err != nil {
					t.Fatalf("served %s from a record that does not decode: %v", k, err)
				}
				if want, err := env.Value(); err != nil || !reflect.DeepEqual(v, want) {
					t.Fatalf("served %s a value its record does not hold", k)
				}
			case !ok && q == 1:
			default:
				t.Fatalf("Get(%s) ok=%v with %d quarantines", k, ok, q)
			}
		}
	})
}
