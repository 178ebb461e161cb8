package persist

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// The entry files, the state snapshot and the serve probe journal are read
// back from disk with no other record to cross-check them against, so their
// decoders must take arbitrary bytes. The fuzz targets below hold them to
// that; each corpus is seeded with a valid encoding plus every mutation of
// corruptionMatrix applied to it, both bare and wrapped in its blob.

// seedMutations adds data and each corruptionMatrix mutation of it.
func seedMutations(f *testing.F, data []byte) {
	f.Add(data)
	for _, tc := range corruptionMatrix {
		f.Add(tc.mutilate(append([]byte(nil), data...)))
	}
}

// checkDecoder asserts one decoder's contract on data: a failure is
// classified corrupt or skewed, and a success re-encodes to bytes that
// decode to a deeply equal value.
func checkDecoder[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	v, err := decode(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSchemaSkew) {
			t.Fatalf("unclassified decode error: %v", err)
		}
		return
	}
	again, err := decode(encode(v))
	if err != nil {
		t.Fatalf("re-encoded value does not decode: %v", err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("re-encode round trip differs:\n got %+v\nwant %+v", again, v)
	}
}

// fuzzBlobDecoder runs checkDecoder on data as a bare payload and, when
// data verifies as a blob of magic, on the payload it carries.
func fuzzBlobDecoder[T any](t *testing.T, data []byte, magic [8]byte, decode func([]byte) (T, error), encode func(T) []byte) {
	checkDecoder(t, data, decode, encode)
	payload, err := decodeBlob(data, magic, testBuildID)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSchemaSkew) {
			t.Fatalf("unclassified blob error: %v", err)
		}
		return
	}
	checkDecoder(t, payload, decode, encode)
}

func FuzzDecodeEntry(f *testing.F) {
	payload := encodeEntry(testEntry(3))
	seedMutations(f, payload)
	seedMutations(f, encodeBlob(MagicEntry, testBuildID, payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBlobDecoder(t, data, MagicEntry, decodeEntry, encodeEntry)
	})
}

func FuzzDecodeState(f *testing.F) {
	payload := encodeState(&EngineState{
		ModuleHash:    0xfeed,
		Variant:       "callgraph",
		OptLevel:      2,
		Fragments:     4,
		Hashes:        map[int]uint64{0: 1, 1: 2},
		FuncMeta:      map[int]FuncMeta{0: {Level: 2, FuncHashes: map[string]uint64{"f": 9}}},
		Quarantine:    map[int][]string{3: {"licm"}},
		Deferred:      []int{2},
		Survey:        &SurveyState{Cat: map[string]int{"f": 1}, BondPairs: [][2]string{{"f", "g"}}, CopyUsers: map[string][]string{"g": {"f"}}},
		VerifiedFuncs: map[string]uint64{"f": 7},
		Supervisor:    &SupervisorState{Breaker: 1, ConsecFails: 3, BackoffNS: 1e6, Quarantined: map[int]string{3: "boom"}},
	})
	seedMutations(f, payload)
	seedMutations(f, encodeBlob(MagicSnapshot, testBuildID, payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBlobDecoder(t, data, MagicSnapshot, decodeState, encodeState)
	})
}

// FuzzLogStream: replay keeps a prefix of the stream, and that prefix is
// exactly the returned records in their framing — so a writer truncating to
// goodLen keeps every record replay reported and nothing else.
func FuzzLogStream(f *testing.F) {
	var stream []byte
	for _, rec := range []string{"rec-0", "", `{"op":"add","id":7}`} {
		stream = append(stream, frameLogRecord([]byte(rec))...)
	}
	seedMutations(f, stream)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen := decodeLogStream(data)
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("good length %d outside [0, %d]", goodLen, len(data))
		}
		var reframed []byte
		for _, r := range recs {
			reframed = append(reframed, frameLogRecord(r)...)
		}
		if !bytes.Equal(reframed, data[:goodLen]) {
			t.Fatalf("%d records reframe to %d bytes that differ from the %d-byte good prefix", len(recs), len(reframed), goodLen)
		}
	})
}
