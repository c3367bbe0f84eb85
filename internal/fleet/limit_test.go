package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvestd"
)

// writeOversized streams one syntactically open JSON value longer than
// core.MaxRecordBytes, so only a read cap can stop the decoder.
func writeOversized(w io.Writer) {
	_, _ = io.WriteString(w, `{"version":1,"shard_id":"`)
	chunk := strings.Repeat("a", 64<<10)
	for n := 0; n <= core.MaxRecordBytes; n += len(chunk) {
		if _, err := io.WriteString(w, chunk); err != nil {
			return // the reader hung up at its cap
		}
	}
	_, _ = io.WriteString(w, `"}`)
}

// TestAggregatorRejectsOversizedShardReply: a shard whose /snapshot reply
// exceeds the read cap fails the pull (counted in pull_errors), keeps its
// previous snapshot, and the aggregator keeps serving the same estimates.
func TestAggregatorRejectsOversizedShardReply(t *testing.T) {
	var oversized atomic.Bool
	snap := testSnap("shard-a", 3, 10, 100)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path != "/snapshot":
			http.NotFound(w, r)
		case oversized.Load():
			writeOversized(w)
		default:
			_ = harvestd.EncodeSnapshot(w, snap)
		}
	}))
	defer shard.Close()

	a, err := New(Config{
		Shards:       []Shard{{Name: "shard-a", URL: shard.URL}},
		PullInterval: time.Hour, // pulls below are explicit
		Addr:         "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Shutdown(context.Background()) }()
	if err := a.PullAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(a.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}
	before := get("/estimates")
	errsBefore := a.shards[0].pullErrors.Load()

	oversized.Store(true)
	if err := a.PullAll(context.Background()); err == nil {
		t.Fatal("pull of an oversized reply succeeded")
	}
	if got := a.shards[0].pullErrors.Load(); got != errsBefore+1 {
		t.Errorf("pull_errors = %d, want %d", got, errsBefore+1)
	}
	if !strings.Contains(get("/metrics"), `harvestagg_shard_pull_errors_total{shard="shard-a"} `) {
		t.Error("/metrics lacks the pull_errors series")
	}
	v := a.View()
	if st := v.Shards[0]; st.Seq != 3 || st.N != 100 || !st.Live {
		t.Errorf("shard lost its previous snapshot: %+v", st)
	}
	if after := get("/estimates"); after != before {
		t.Errorf("estimates changed after a rejected pull:\n%s\n%s", before, after)
	}
}

func TestFetchFreshnessCapsReply(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeOversized(w)
	}))
	defer shard.Close()
	if _, err := fetchFreshness(context.Background(), shard.Client(), shard.URL); err == nil {
		t.Fatal("oversized /freshness reply decoded")
	}
}
