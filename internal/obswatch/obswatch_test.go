package obswatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSeriesRing(t *testing.T) {
	s := NewSeries(4)
	if _, ok := s.Last(); ok {
		t.Fatal("empty series reported a last sample")
	}
	for i := 1; i <= 6; i++ {
		s.Append(int64(i), float64(i)*10)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	got := s.Samples()
	want := []Sample{{3, 30}, {4, 40}, {5, 50}, {6, 60}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	last, ok := s.Last()
	if !ok || last != (Sample{6, 60}) {
		t.Fatalf("last = %v/%t, want {6 60}", last, ok)
	}
}

// promFixture mixes every line shape ParseProm meets: comments, labels
// with spaces, lines without a value, non-finite values and blanks. The
// ParseProm fuzzer seeds from it.
const promFixture = `# HELP x_total help text
# TYPE x_total counter
x_total 42
lat{backend="a b",q="0.5"} 1.25
bad_line_without_value
nan_metric NaN
inf_metric +Inf
empty

gauge_neg -3.5
`

func TestParseProm(t *testing.T) {
	got := ParseProm([]byte(promFixture))
	want := map[string]float64{
		"x_total":                    42,
		`lat{backend="a b",q="0.5"}`: 1.25,
		"gauge_neg":                  -3.5,
	}
	// NaN and ±Inf parse via ParseFloat but are dropped: they make no
	// useful alert input (comparisons with NaN are always false) and a
	// non-finite sample is unencodable in the /series JSON payload —
	// empty-histogram quantile gauges legitimately expose NaN.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed = %v, want %v", got, want)
	}
}

func TestRuleValidation(t *testing.T) {
	if _, err := New(Config{
		Targets: []Target{{Kind: KindHarvestd, Name: "h", URL: "http://x"}},
		Rules:   []Rule{{Name: "bad", Kind: RuleMetricAbove}},
	}); err == nil {
		t.Fatal("metric rule without a metric name accepted")
	}
	if _, err := New(Config{
		Targets: []Target{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}},
	}); err == nil {
		t.Fatal("duplicate target names accepted")
	}
	if _, err := New(Config{
		Targets: []Target{{Name: "h", URL: "http://x"}},
		Rules:   DefaultRules(RuleDefaults{}),
	}); err != nil {
		t.Fatalf("default rules rejected: %v", err)
	}
}

// scriptedTarget is a fake daemon whose surfaces replay whatever the test
// scripted for the current frame. An empty metrics body plays a 503 (the
// daemon is down); empty freshness/gates bodies play 404 (surface absent).
type scriptedTarget struct {
	mu        sync.Mutex
	metrics   string
	freshness string
	gates     string
	srv       *httptest.Server
}

func newScriptedTarget(t *testing.T) *scriptedTarget {
	t.Helper()
	st := &scriptedTarget{}
	st.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		defer st.mu.Unlock()
		switch r.URL.Path {
		case "/metrics":
			if st.metrics == "" {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			_, _ = w.Write([]byte(st.metrics))
		case "/freshness":
			if st.freshness == "" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(st.freshness))
		case "/gates":
			if st.gates == "" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(st.gates))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(st.srv.Close)
	return st
}

func (st *scriptedTarget) set(metrics, freshness, gates string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.metrics, st.freshness, st.gates = metrics, freshness, gates
}

func aggMetrics(ess float64, n int) string {
	return fmt.Sprintf(`harvestagg_policy_ess_fraction{policy="cand"} %g
harvestagg_policy_n{policy="cand"} %d
harvestagg_shard_up{shard="s0"} 1
harvestagg_shard_staleness_seconds{shard="s0"} 0.25
`, ess, n)
}

func freshBody(age float64) string {
	return fmt.Sprintf(`{"watermark_age_seconds": %g, "behind": 0}`, age)
}

func gatesBody(outcomes ...string) string {
	rows := make([]map[string]string, len(outcomes))
	for i, o := range outcomes {
		rows[i] = map[string]string{"outcome": o}
	}
	b, _ := json.Marshal(rows)
	return string(b)
}

// simRules is the sim scenario's alert table: the defaults, with a 10s
// hysteresis window on the fleet ESS rule so the pending->firing path is
// exercised.
func simRules() []Rule {
	rules := DefaultRules(RuleDefaults{ESSFloor: 0.1, LagSLO: 30, StaleSLO: 15, FlapThreshold: 3})
	for i := range rules {
		if rules[i].Name == "fleet_ess_collapse" {
			rules[i].For = 10 * time.Second
		}
	}
	return rules
}

// playScript runs the scripted nine-frame scenario: an ESS collapse that
// burns through the hysteresis window and recovers, a freshness-lag SLO
// breach, a gate-flapping episode, and a target outage. One tick every 5
// simulated seconds.
func playScript(t *testing.T, w *Watcher, clk *obs.FixedClock, agg, ro *scriptedTarget) {
	t.Helper()
	roMetrics := "rolloutd_uptime_seconds 5\n"
	type frame struct {
		aggEss   float64
		freshAge float64
		roUp     bool
		gates    string
	}
	frames := []frame{
		{aggEss: 0.8, freshAge: 1, roUp: true, gates: gatesBody("promote", "promote")},
		{aggEss: 0.05, freshAge: 1, roUp: true, gates: gatesBody("promote", "promote")},
		{aggEss: 0.05, freshAge: 45, roUp: true, gates: gatesBody("promote", "promote")},
		{aggEss: 0.05, freshAge: 45, roUp: true, gates: gatesBody("promote", "promote")},
		{aggEss: 0.9, freshAge: 2, roUp: true, gates: gatesBody("promote", "promote")},
		{aggEss: 0.9, freshAge: 2, roUp: true, gates: gatesBody("promote", "hold", "promote", "hold")},
		{aggEss: 0.9, freshAge: 2, roUp: true, gates: gatesBody("hold", "hold", "hold", "hold")},
		{aggEss: 0.9, freshAge: 2, roUp: false},
		{aggEss: 0.9, freshAge: 2, roUp: true, gates: gatesBody("hold", "hold")},
	}
	for _, fr := range frames {
		agg.set(aggMetrics(fr.aggEss, 500), freshBody(fr.freshAge), "")
		if fr.roUp {
			ro.set(roMetrics, "", fr.gates)
		} else {
			ro.set("", "", "")
		}
		clk.Advance(5 * time.Second)
		w.Tick(context.Background())
	}
}

// TestWatcherSimDeterministic drives scripted frames through an injected
// clock and pins the full incident sequence — including an ESS-collapse
// open and resolve — then replays the identical script into a second
// watcher and demands byte-identical incident JSONL.
func TestWatcherSimDeterministic(t *testing.T) {
	agg := newScriptedTarget(t)
	ro := newScriptedTarget(t)

	run := func() (*Watcher, *obs.FixedClock, *bytes.Buffer) {
		var buf bytes.Buffer
		clk := &obs.FixedClock{T: time.Unix(2000000000, 0).UTC()}
		w, err := New(Config{
			Targets: []Target{
				{Kind: KindHarvestagg, Name: "agg", URL: agg.srv.URL},
				{Kind: KindRolloutd, Name: "ro", URL: ro.srv.URL},
			},
			Rules:     simRules(),
			SeriesCap: 32,
			IncidentW: &buf,
			Clock:     clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, clk, &buf
	}

	w, clk, buf := run()
	playScript(t, w, clk, agg, ro)

	var incidents []Incident
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var inc Incident
		if err := dec.Decode(&inc); err != nil {
			t.Fatalf("decoding incident log: %v", err)
		}
		incidents = append(incidents, inc)
	}
	type step struct{ state, rule, target string }
	want := []step{
		{"open", "freshness_lag", "agg"},      // frame 3: watermark age 45 > 30
		{"open", "fleet_ess_collapse", "agg"}, // frame 4: 10s hysteresis elapsed
		{"resolved", "fleet_ess_collapse", "agg"},
		{"resolved", "freshness_lag", "agg"}, // frame 5: both clear, rule order
		{"open", "gate_flap", "ro"},          // frame 6: 3 outcome changes
		{"resolved", "gate_flap", "ro"},      // frame 7: steady decisions
		{"open", "target_down", "ro"},        // frame 8: 503s
		{"resolved", "target_down", "ro"},    // frame 9: back up
	}
	if len(incidents) != len(want) {
		t.Fatalf("got %d incidents, want %d:\n%s", len(incidents), len(want), buf.String())
	}
	for i, inc := range incidents {
		if inc.Seq != int64(i+1) || inc.Version != IncidentVersion {
			t.Errorf("incident %d: seq=%d version=%d", i, inc.Seq, inc.Version)
		}
		if inc.State != want[i].state || inc.Rule != want[i].rule || inc.Target != want[i].target {
			t.Errorf("incident %d = %s/%s/%s, want %v", i, inc.State, inc.Rule, inc.Target, want[i])
		}
	}
	// The ESS resolve burned exactly one 5s frame; the freshness burn two.
	if incidents[2].DurationSeconds != 5 {
		t.Errorf("ess burn = %gs, want 5", incidents[2].DurationSeconds)
	}
	if incidents[3].DurationSeconds != 10 {
		t.Errorf("freshness burn = %gs, want 10", incidents[3].DurationSeconds)
	}
	if incidents[1].Value != 0.05 {
		t.Errorf("ess open value = %g, want 0.05", incidents[1].Value)
	}

	// Replaying the identical script must reproduce the incident log
	// byte for byte.
	w2, clk2, buf2 := run()
	playScript(t, w2, clk2, agg, ro)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("incident logs differ between identical runs:\n--- run 1\n%s--- run 2\n%s",
			buf.String(), buf2.String())
	}
}

// TestWatcherEndpoints exercises the HTTP surface against a mid-burn
// scripted state: /alerts lists the firing instances sorted, /series
// retains the scraped samples, /status summarizes scrape health.
func TestWatcherEndpoints(t *testing.T) {
	agg := newScriptedTarget(t)
	ro := newScriptedTarget(t)
	var buf bytes.Buffer
	clk := &obs.FixedClock{T: time.Unix(2000000000, 0).UTC()}
	w, err := New(Config{
		Targets: []Target{
			{Kind: KindHarvestagg, Name: "agg", URL: agg.srv.URL},
			{Kind: KindRolloutd, Name: "ro", URL: ro.srv.URL},
		},
		Rules:     simRules(),
		SeriesCap: 32,
		IncidentW: &buf,
		Clock:     clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = w.Shutdown(ctx)
	})

	// Two frames: healthy, then ESS collapsed + freshness breached long
	// enough for the lag alert (For 0) to open.
	agg.set(aggMetrics(0.8, 500), freshBody(1), "")
	ro.set("rolloutd_uptime_seconds 5\n", "", gatesBody("promote"))
	clk.Advance(5 * time.Second)
	w.Tick(context.Background())
	agg.set(aggMetrics(0.05, 500), freshBody(45), "")
	clk.Advance(5 * time.Second)
	w.Tick(context.Background())

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(w.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		var sb bytes.Buffer
		if _, err := sb.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	var alerts []Alert
	if err := json.Unmarshal([]byte(get("/alerts")), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want ess pending + freshness firing", alerts)
	}
	if alerts[0].Rule != "fleet_ess_collapse" || alerts[0].State != "pending" {
		t.Errorf("alert 0 = %+v, want pending fleet_ess_collapse", alerts[0])
	}
	if alerts[1].Rule != "freshness_lag" || alerts[1].State != "firing" || alerts[1].Value != 45 {
		t.Errorf("alert 1 = %+v, want firing freshness_lag at 45", alerts[1])
	}

	var status Status
	if err := json.Unmarshal([]byte(get("/status")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Ticks != 2 || status.AlertsPending != 1 || status.AlertsFiring != 1 || status.Incidents != 1 {
		t.Errorf("status = ticks %d pending %d firing %d incidents %d",
			status.Ticks, status.AlertsPending, status.AlertsFiring, status.Incidents)
	}
	if len(status.Targets) != 2 || !status.Targets[0].Up || status.Targets[0].Scrapes != 2 {
		t.Errorf("target rows = %+v", status.Targets)
	}

	var series map[string]map[string][]Sample
	if err := json.Unmarshal([]byte(get("/series?target=agg&prefix=watch_")), &series); err != nil {
		t.Fatal(err)
	}
	wm := series["agg"]["watch_watermark_age_seconds"]
	if len(wm) != 2 || wm[0].V != 1 || wm[1].V != 45 {
		t.Errorf("watermark series = %v, want [1 45]", wm)
	}
	if _, ok := series["agg"][`harvestagg_policy_ess_fraction{policy="cand"}`]; ok {
		t.Error("prefix filter leaked a non-watch series")
	}

	if body := get("/metrics"); !bytes.Contains([]byte(body), []byte("fleetwatch_alerts_firing 1")) {
		t.Errorf("watcher metrics missing firing gauge:\n%s", body)
	}
	if body := get("/healthz"); !bytes.Contains([]byte(body), []byte("targets=2/2 firing=1")) {
		t.Errorf("healthz = %q", body)
	}
}

// TestFlappingTargetByteStable flaps one target through three
// answer->503->answer cycles while concurrent readers hammer the API, and
// demands the alert open->resolve incident sequence come out byte-stable
// across two identical runs — the -race scrape-vs-serve exercise.
func TestFlappingTargetByteStable(t *testing.T) {
	target := newScriptedTarget(t)
	up := "lbd_uptime_seconds 1\n"

	run := func() *bytes.Buffer {
		var buf bytes.Buffer
		clk := &obs.FixedClock{T: time.Unix(2100000000, 0).UTC()}
		w, err := New(Config{
			Targets:   []Target{{Kind: KindLBD, Name: "lb", URL: target.srv.URL}},
			Rules:     []Rule{{Name: "target_down", Kind: RuleTargetDown}},
			IncidentW: &buf,
			Clock:     clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = w.Shutdown(ctx)
		}()

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for i := 0; i < 3; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, p := range []string{"/alerts", "/status", "/metrics"} {
						resp, err := http.Get(w.URL() + p)
						if err == nil {
							_ = resp.Body.Close()
						}
					}
				}
			}()
		}
		for cycle := 0; cycle < 3; cycle++ {
			target.set(up, "", "")
			clk.Advance(time.Second)
			w.Tick(context.Background())
			target.set("", "", "")
			clk.Advance(time.Second)
			w.Tick(context.Background())
		}
		target.set(up, "", "")
		clk.Advance(time.Second)
		w.Tick(context.Background())
		close(stop)
		readers.Wait()
		return &buf
	}

	buf1 := run()
	var states []string
	dec := json.NewDecoder(bytes.NewReader(buf1.Bytes()))
	for dec.More() {
		var inc Incident
		if err := dec.Decode(&inc); err != nil {
			t.Fatal(err)
		}
		if inc.Rule != "target_down" || inc.Target != "lb" {
			t.Fatalf("unexpected incident %+v", inc)
		}
		states = append(states, inc.State)
	}
	want := []string{"open", "resolved", "open", "resolved", "open", "resolved"}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("incident states = %v, want %v", states, want)
	}

	buf2 := run()
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("flap incident logs differ between identical runs:\n--- run 1\n%s--- run 2\n%s",
			buf1.String(), buf2.String())
	}
}
