package obswatch

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/obs"
)

// FuzzParseProm feeds arbitrary exposition text to the scrape parser the
// watcher runs on every target's /metrics reply. It must never panic and
// never yield a NaN or ±Inf sample (those would poison the rule table and
// the /series JSON), and every key must be non-empty.
func FuzzParseProm(f *testing.F) {
	f.Add([]byte(promFixture))
	f.Add([]byte(aggMetrics(0.5, 100)))
	f.Add([]byte(freshBody(1.5)))
	f.Add([]byte{})
	reg := obs.NewRegistry()
	reg.Counter("fuzz_total", "a counter", "k", `a "quoted" label`).Add(3)
	reg.Gauge("fuzz_gauge", "a gauge").Set(-0.25)
	reg.Histogram("fuzz_seconds", "a histogram", []float64{0.1, 1}).Observe(0.5)
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		f.Fatal(err)
	}
	f.Add(page.Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		for key, v := range ParseProm(body) {
			if key == "" {
				t.Fatalf("empty series key (value %v)", v)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite sample %s = %v", key, v)
			}
		}
	})
}
