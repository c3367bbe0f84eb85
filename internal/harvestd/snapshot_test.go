package harvestd

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// accumBitsEqual compares two accumulators bit-for-bit: integer fields by
// value, float fields by IEEE-754 bit pattern (so +0 vs −0 or a single-ULP
// drift fails, which plain == would let through for signed zeros).
func accumBitsEqual(a, b *Accum) bool {
	if a.N != b.N || a.Matches != b.Matches || a.Clipped != b.Clipped || a.FloorHits != b.FloorHits {
		return false
	}
	af, bf := a.floats(), b.floats()
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return true
}

// TestAccumFloatsCoversEveryField guards the floats() helper against struct
// drift: if someone adds a float field to Accum without listing it, the
// finiteness gate and the bit-exactness tests would silently skip it.
func TestAccumFloatsCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Accum{})
	floatFields := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Float64 {
			floatFields++
		}
	}
	var a Accum
	if got := len(a.floats()); got != floatFields {
		t.Fatalf("Accum has %d float64 fields but floats() lists %d — update snapshot.go", floatFields, got)
	}
}

// randomAccum builds an accumulator by folding n random datapoints — every
// realizable field pattern, including clip hits and floor hits.
func randomAccum(seed int64, n int) Accum {
	r := stats.NewRand(seed)
	var a Accum
	for i := 0; i < n; i++ {
		pi := r.Float64()
		if r.Intn(4) == 0 {
			pi = 0 // no-match datapoints
		}
		p := 0.05 + 0.95*r.Float64()
		if r.Intn(8) == 0 {
			p = 5e-4 // below the default floor
		}
		reward := -2 + 4*r.Float64()
		a.Fold(pi, p, reward, 3.0, DefaultPropensityFloor)
	}
	return a
}

// TestSnapshotRoundTripExact: encode → decode must reproduce every
// accumulator bit-for-bit, across many random accumulators, so a merged
// estimate computed from wire snapshots can never drift from one computed
// in-process.
func TestSnapshotRoundTripExact(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		s := StateSnapshot{
			Version: SnapshotVersion,
			ShardID: "shard-a",
			Seq:     seed,
			Clip:    3.0,
			Floor:   DefaultPropensityFloor,
			Counters: SnapshotCounters{
				Lines: 100 + seed, ParseErrors: 1, Rejected: 2, Ingested: 97, Folded: 97,
			},
			Policies: map[string]Accum{
				"uniform":     randomAccum(seed, 200),
				"leastloaded": randomAccum(seed+1000, 137),
				"empty":       {},
			},
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, &s); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if got.ShardID != s.ShardID || got.Seq != s.Seq || got.Counters != s.Counters ||
			got.Clip != s.Clip || got.Floor != s.Floor {
			t.Fatalf("seed %d: envelope drifted: %+v vs %+v", seed, got, s)
		}
		if len(got.Policies) != len(s.Policies) {
			t.Fatalf("seed %d: %d policies, want %d", seed, len(got.Policies), len(s.Policies))
		}
		for name, want := range s.Policies {
			dec := got.Policies[name]
			if !accumBitsEqual(&dec, &want) {
				t.Fatalf("seed %d: policy %q not bit-identical after round trip:\n got %+v\nwant %+v",
					seed, name, dec, want)
			}
		}
	}
}

// TestSnapshotWireMergeMatchesInProcess: the federation invariant. Folding
// shard B's state into shard A via the wire (encode→decode→Merge) must be
// bit-identical to merging the same in-memory accumulators directly — the
// wire adds exactly nothing.
func TestSnapshotWireMergeMatchesInProcess(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		a1, a2 := randomAccum(seed, 151), randomAccum(seed+5000, 149)

		// In-process merge.
		direct := a1
		direct.Merge(&a2)

		// Over-the-wire merge.
		s := StateSnapshot{Version: SnapshotVersion, Policies: map[string]Accum{"p": a2}}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, &s); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		dec, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		viaWire := a1
		decAcc := dec.Policies["p"]
		viaWire.Merge(&decAcc)

		if !accumBitsEqual(&direct, &viaWire) {
			t.Fatalf("seed %d: wire merge diverged from in-process merge:\n wire   %+v\n direct %+v",
				seed, viaWire, direct)
		}
		// And the derived estimates (all three estimators) agree exactly.
		de, we := direct.Estimate("p", 0.05), viaWire.Estimate("p", 0.05)
		if de != we {
			t.Fatalf("seed %d: estimates diverged: %+v vs %+v", seed, de, we)
		}
		dd, wd := direct.Diagnostics("p"), viaWire.Diagnostics("p")
		if dd != wd {
			t.Fatalf("seed %d: diagnostics diverged: %+v vs %+v", seed, dd, wd)
		}
	}
}

// goldenSnapshotWire is the wire form TestSnapshotGoldenBytes pins; the
// snapshot fuzzer seeds from it.
const goldenSnapshotWire = `{"version":1,"shard_id":"golden","seq":7,"clip":3,"floor":0.001,"eval_panics":0,"counters":{"lines":2,"parse_errors":0,"rejected":0,"ingested":2,"folded":2},"policies":{"p":{"n":2,"matches":2,"sum_w":6,"sum_w_sq":20,"max_w":4,"sum_wr":1,"sum_wr_sq":13,"sum_w2r":-2,"sum_w2r2":13,"sum_cw":5,"sum_cwr":1.5,"sum_cwr_sq":11.25,"min_term":-2,"max_term":3,"min_cterm":-1.5,"max_cterm":3,"min_r":-0.5,"max_r":1.5,"clipped":1,"floor_hits":0}}}` + "\n"

// TestSnapshotGoldenBytes pins the exact wire bytes of a fixed snapshot:
// any schema or encoding change (field rename, float formatting, key
// order) must be deliberate, because it breaks mixed-version fleets.
func TestSnapshotGoldenBytes(t *testing.T) {
	var acc Accum
	acc.Fold(0.5, 0.25, 1.5, 3.0, 1e-3)  // w=2, term=3
	acc.Fold(1.0, 0.25, -0.5, 3.0, 1e-3) // w=4 → clipped to 3
	s := StateSnapshot{
		Version:  SnapshotVersion,
		ShardID:  "golden",
		Seq:      7,
		Clip:     3,
		Floor:    0.001,
		Counters: SnapshotCounters{Lines: 2, Ingested: 2, Folded: 2},
		Policies: map[string]Accum{"p": acc},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &s); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), goldenSnapshotWire; got != want {
		t.Fatalf("golden wire bytes drifted:\n got  %s\n want %s", got, want)
	}
}

// TestSnapshotRejectsPoisonedState: non-finite accumulator state must not
// cross the fleet boundary in either direction.
func TestSnapshotRejectsPoisonedState(t *testing.T) {
	bad := randomAccum(1, 10)
	bad.SumW = math.Inf(1)
	s := StateSnapshot{Version: SnapshotVersion, Policies: map[string]Accum{"p": bad}}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &s); err == nil {
		t.Fatal("encoded a snapshot carrying +Inf")
	}
	// Hand-crafted wire bytes with inconsistent counts must not decode.
	if _, err := DecodeSnapshot(strings.NewReader(
		`{"version":1,"policies":{"p":{"n":1,"matches":2}}}`)); err == nil {
		t.Fatal("decoded a snapshot with matches > n")
	}
	// Wrong version must not decode.
	if _, err := DecodeSnapshot(strings.NewReader(`{"version":99,"policies":{}}`)); err == nil {
		t.Fatal("decoded a version-99 snapshot")
	}
}

// TestDaemonStateSnapshot drives a daemon in-process and checks the
// snapshot reflects its state and the seq increments per call.
func TestDaemonStateSnapshot(t *testing.T) {
	reg := newTestRegistry(t, 1)
	d, err := New(Config{Workers: 1, ShardID: "shard-7"}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	for _, dp := range testDataset(5, 33) {
		if err := d.Ingest(dp); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == 5 })
	s1 := d.StateSnapshot()
	s2 := d.StateSnapshot()
	if s1.ShardID != "shard-7" || s2.Seq != s1.Seq+1 {
		t.Fatalf("snapshot envelope: %+v then %+v", s1, s2)
	}
	if s1.Counters.Folded != 5 || s1.Policies["leastloaded"].N != 5 {
		t.Fatalf("snapshot state: counters=%+v policies=%+v", s1.Counters, s1.Policies)
	}
	if err := EncodeSnapshot(io.Discard, &s1); err != nil {
		t.Fatalf("live snapshot failed validation: %v", err)
	}
}
