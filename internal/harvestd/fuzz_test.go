package harvestd

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the federation decoder the
// aggregator runs on every shard reply. Anything it accepts must pass
// Validate and re-encode, and the re-encoding must be a fixed point
// (decode → encode reproduces it byte for byte), so nothing the fleet tier
// admits can fail to checkpoint or drift on the next hop.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte(goldenSnapshotWire))
	f.Add([]byte(`{"version":1,"policies":{"p":{"n":1,"matches":2}}}`))
	f.Add([]byte(`{"version":99,"policies":{}}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})
	acc := randomAccum(3, 50)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &StateSnapshot{
		Version: SnapshotVersion, ShardID: "seed", Seq: 1, Clip: 10,
		Counters: SnapshotCounters{Lines: 50, Folded: 50},
		Policies: map[string]Accum{"uniform": acc, "always-0": {}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := EncodeSnapshot(&first, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := DecodeSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := EncodeSnapshot(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
