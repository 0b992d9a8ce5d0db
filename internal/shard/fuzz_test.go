package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/rating"
)

// FuzzShardIndex feeds arbitrary keys and shard counts to the
// router's placement hash. The routing invariants everything else is
// built on: never panic, always land in [0, n), be a pure function of
// the inputs (recovery replays ratings into the shard that logged
// them), and agree with ShardFor on 8-byte little-endian object keys.
func FuzzShardIndex(f *testing.F) {
	f.Add([]byte(nil), 1)
	f.Add([]byte{0}, 1)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 4)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 8)
	f.Add([]byte("object-123"), 3)
	f.Add([]byte{42, 0, 0, 0, 0, 0, 0, 0}, 7)

	f.Fuzz(func(t *testing.T, key []byte, n int) {
		if n <= 0 {
			// Non-positive shard counts are a constructor-rejected
			// programming error; the contract is a panic, not a wrap.
			defer func() {
				if recover() == nil {
					t.Fatalf("Index(%x, %d) did not panic", key, n)
				}
			}()
			Index(key, n)
			return
		}
		got := Index(key, n)
		if got < 0 || got >= n {
			t.Fatalf("Index(%x, %d) = %d outside [0,%d)", key, n, got, n)
		}
		if again := Index(key, n); again != got {
			t.Fatalf("Index(%x, %d) unstable: %d then %d", key, n, got, again)
		}
		// The hash must be real FNV-1a, not merely self-consistent:
		// cross-check against the standard library's implementation.
		ref := fnv.New64a()
		ref.Write(key)
		if want := int(ref.Sum64() % uint64(n)); got != want {
			t.Fatalf("Index(%x, %d) = %d, stdlib FNV-1a says %d", key, n, got, want)
		}
		// 8-byte keys are object placements: ShardFor must agree.
		if len(key) == 8 {
			var v uint64
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(key[i])
			}
			obj := rating.ObjectID(int64(v))
			if s := ShardFor(obj, n); s != got {
				t.Fatalf("ShardFor(%d, %d) = %d, Index of its key = %d", obj, n, s, got)
			}
		}
	})
}

// The placement hash is pinned: these values are on disk (each shard
// directory holds the ratings its hash routed there), so they may
// never change across builds or platforms.
func TestShardHashPinned(t *testing.T) {
	cases := []struct {
		key  []byte
		want uint64
	}{
		{nil, 14695981039346656037},
		{[]byte{0}, 12638153115695167455},
		{[]byte("a"), 12638187200555641996},
		{[]byte("shard"), 7940003687735986699},
	}
	for _, c := range cases {
		if got := Hash64(c.key); got != c.want {
			t.Fatalf("Hash64(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	// Placement spot checks across counts: recomputed from the pinned
	// FNV-1a parameters, not from ShardFor itself.
	for _, obj := range []rating.ObjectID{0, 1, 42, -1, 1 << 40} {
		for _, n := range []int{1, 2, 4, 8} {
			v := uint64(int64(obj))
			var key [8]byte
			for i := 0; i < 8; i++ {
				key[i] = byte(v >> (8 * i))
			}
			want := int(Hash64(key[:]) % uint64(n))
			if got := ShardFor(obj, n); got != want {
				t.Fatalf("ShardFor(%d, %d) = %d, want %d", obj, n, got, want)
			}
		}
	}
}

// twoPassDecodeShardSnapshot is decodeShardSnapshot as it was before
// the envelope and its state decoded in one pass: the envelope with the
// state as a json.RawMessage, then that copy through
// core.DecodeSnapshot. It is the reference FuzzDecodeShardSnapshot
// holds the one-pass decoder to.
func twoPassDecodeShardSnapshot(data []byte) (shardSnapshotHeader, core.StateView, error) {
	var snap struct {
		Version    int             `json:"version"`
		Shard      int             `json:"shard"`
		Shards     int             `json:"shards"`
		BarrierSeq uint64          `json:"barrierSeq"`
		WindowEnd  float64         `json:"windowEnd,omitempty"`
		State      json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return shardSnapshotHeader{}, core.StateView{}, fmt.Errorf("shard: snapshot decode: %w", err)
	}
	if snap.Version != shardSnapshotVersion {
		return shardSnapshotHeader{}, core.StateView{}, fmt.Errorf("shard: snapshot version %d", snap.Version)
	}
	view, err := core.DecodeSnapshot(bytes.NewReader(snap.State))
	if err != nil {
		return shardSnapshotHeader{}, core.StateView{}, err
	}
	return shardSnapshotHeader{snap.Version, snap.Shard, snap.Shards, snap.BarrierSeq, snap.WindowEnd}, view, nil
}

// FuzzDecodeShardSnapshot feeds arbitrary bytes to the shard snapshot
// decoder recovery runs. It must never panic, and on every input it
// must agree with the two-pass reference: both fail, or both return
// the same header and view, float bits included (%v prints a float's
// shortest exact form, -0 included, and a map in key order).
func FuzzDecodeShardSnapshot(f *testing.F) {
	// Seeds stay small: the fuzzer's minimization of each new input
	// grows with the square of its length.
	e, err := NewEngine(core.Config{}, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.SubmitAll([]rating.Rating{{Rater: 1, Object: 2, Value: 0.5, Time: 1}, {Rater: 3, Object: 2, Value: 0.25, Time: 2.5}}); err != nil {
		f.Fatal(err)
	}
	for _, window := range []bool{false, true} {
		if window { // trust records and windowEnd
			if _, err := e.ProcessWindow(0, 3); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := WriteShardSnapshot(e, 0, 7, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	const r1 = `{"rater":1,"object":2,"value":0.5,"time":1}`
	for _, s := range []string{
		``, `null`, `{}`, `[]`, `{"version":1}`, `{"version":1,"state":null}`,
		`{"version":2,"state":{"version":1}}`,
		`{"version":1,"state":{"version":2}}`,
		`{"version":1,"state":{"version":1}}`,
		`{"version":1,"state":{"version":1,"ratings":[` + r1 + `]}} x`,
		`{"version":1,"state":{"version":1,"ratings":[{"value":-0,"time":1e308}],"records":[{"rater":3,"s":-0}]}}`,
		`{"version":1,"state":{"version":1,"ratings":[{"rater":"x"}]}}`,
		`{"version":1,"windowEnd":-0,"state":{"version":1}}`,
		// Repeated state keys: the last value is the state.
		`{"version":1,"state":{"version":1,"ratings":[` + r1 + `]},"state":{"version":1}}`,
		`{"version":1,"state":{"version":1,"ratings":[` + r1 + `]},"state":null}`,
		`{"version":1,"state":{"version":"x"},"STATE":{"version":1}}`,
		`{"version":1,"state":{"version":1,"ratings":[` + r1 + `]},"ſtate":{"version":1}}`,
		`{"version":1,"state":{"version":1,"ratings":[` + r1 + `]},"st\u0061te":{"version":1}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, v, err := decodeShardSnapshot(data)
		wh, wv, werr := twoPassDecodeShardSnapshot(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: err %v, two-pass err %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if got, want := fmt.Sprintf("%+v %+v", h, v), fmt.Sprintf("%+v %+v", wh, wv); got != want {
			t.Fatalf("%q: decoded\n%s\ntwo-pass\n%s", data, got, want)
		}
	})
}
