package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harvestd"
	"repro/internal/harvester"
	"repro/internal/harvester/binrec"
	"repro/internal/lbsim"
	"repro/internal/netlb"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rollout"
	"repro/internal/stats"
)

// perLayer is every metric a traced run reports, with its unit. A layer a
// workload does not exercise reads 0. The traced.* entries are the traced
// run's end-to-end values, to set beside the untraced runs' values: their
// difference is the tracing overhead.
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"netlb.proxy_self_p50_us", "us"},
	{"netlb.log_write_us", "us"},
	{"netlb.log_bytes_per_req", "B"},
	{"policy.decide_ns", "ns"},
	{"policy.eval_ns_per_record", "ns"},
	{"harvester.parse_ns_per_line", "ns"},
	{"binrec.decode_ns_per_record", "ns"},
	{"binrec.decode_alloc_bytes_per_record", "B"},
	{"harvestd.enqueue_wait_ns_per_record", "ns"},
	{"harvestd.fold_ns_per_record", "ns"},
	{"harvestd.pipeline_ns_per_record", "ns"},
	{"harvestd.unexplained_ns_per_record", "ns"},
	{"harvestd.estimates_us", "us"},
	{"harvestd.snapshot_encode_us", "us"},
	{"harvestd.snapshot_bytes", "B"},
	{"harvestd.ingest_bin_us_per_batch", "us"},
	{"harvestd.fold_lag_p99_ms", "ms"},
	{"fleet.pull_ms", "ms"},
	{"fleet.snapshot_decode_us", "us"},
	{"fleet.merge_us", "us"},
	{"fleet.estimates_http_us", "us"},
	{"rollout.step_ms", "ms"},
	{"runtime.gc_cpu_frac.lbd", "ratio"},
	{"runtime.gc_cpu_frac.harvestd", "ratio"},
	{"runtime.gc_cpu_frac.harvestagg", "ratio"},
	{"experiments.fig1_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.eq1_s", "s"},
	{"experiments.loop_s", "s"},
	{"experiments.drift_s", "s"},
	{"experiments.rollout_s", "s"},
	{"experiments.zipf_s", "s"},
	{"experiments.p99_s", "s"},
	{"experiments.longterm_s", "s"},
	{"experiments.ablate_s", "s"},
	{"ope.ips_ns_per_record", "ns"},
	{"ope.snips_ns_per_record", "ns"},
	{"traced.setup_s", "s"},
	{"traced.op_p50_ms", "ms"},
	{"traced.throughput_per_s", "1/s"},
	{"traced.cpu_s", "s"},
	{"traced.peak_rss_mb", "MB"},
	{"traced.error_rate", "ratio"},
	{"traced.records_per_s", "rec/s"},
	{"traced.req_p50_ms", "ms"},
	{"traced.req_p99_ms", "ms"},
	{"traced.fresh_p50_ms", "ms"},
	{"traced.fresh_p99_ms", "ms"},
	{"traced.query_p50_ms", "ms"},
	{"traced.query_p99_ms", "ms"},
	{"traced.ingest_p50_ms", "ms"},
	{"traced.ingest_p99_ms", "ms"},
	{"traced.repro_s", "s"},
}

// layerMetrics completes a traced run's metrics: every perLayer name, the
// traced end-to-end values copied in, zero for layers not exercised.
func layerMetrics(o *outcome) map[string]metric {
	out := map[string]metric{}
	for _, pl := range perLayer {
		v := o.layers[pl.name].Value
		if k, ok := strings.CutPrefix(pl.name, "traced."); ok {
			if m, ok := o.e2e[k]; ok {
				v = m.Value
			} else if m, ok := o.detail[k]; ok {
				v = m.Value
			} else if k == "error_rate" {
				v = float64(o.failed) / float64(o.attempted)
			}
		}
		out[pl.name] = metric{v, pl.unit}
	}
	return out
}

// perCall runs fn k times, each call a span under a parent span called
// name, and returns the median call time.
func perCall(tr *obs.Tracer, parent *obs.Span, name string, k int, fn func() error) (time.Duration, error) {
	sp := tr.Start(name, parent, map[string]any{"calls": k})
	defer sp.End()
	ds := make([]float64, k)
	for i := range ds {
		c := tr.Start(name+"/call", sp, nil)
		t0 := time.Now()
		err := fn()
		ds[i] = float64(time.Since(t0))
		c.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(ds)), nil
}

// perItem times one pass of fn over n items under a span and returns the
// time per item.
func perItem(tr *obs.Tracer, parent *obs.Span, name string, n int, fn func() error) (time.Duration, error) {
	sp := tr.Start(name, parent, map[string]any{"items": n})
	defer sp.End()
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return time.Since(t0) / time.Duration(n), nil
}

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// daemonLayers reads the running daemons' own exports: the fold-lag
// quantile on each shard's /freshness and the GC CPU share in each
// daemon's expvar memstats.
func daemonLayers(c *http.Client, o *outcome, shards []string, debugs map[string][]string) error {
	lag := 0.0
	for _, s := range shards {
		var fr harvestd.FreshnessReport
		if err := getJSON(c, s+"/freshness", &fr); err != nil {
			return err
		}
		for _, src := range fr.Sources {
			if src.LagP99Seconds*1000 > lag {
				lag = src.LagP99Seconds * 1000
			}
		}
	}
	o.layers["harvestd.fold_lag_p99_ms"] = metric{lag, "ms"}
	kinds := make([]string, 0, len(debugs))
	for kind := range debugs {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		addrs := debugs[kind]
		sum := 0.0
		for _, a := range addrs {
			f, err := gcCPUFraction(c, a)
			if err != nil {
				return err
			}
			sum += f
		}
		o.layers["runtime.gc_cpu_frac."+kind] = metric{sum / float64(len(addrs)), "ratio"}
	}
	return nil
}

// decodeLayer times binrec decoding of stream, passes times, into one
// reused batch, and the bytes it allocates per record.
func decodeLayer(tr *obs.Tracer, root *obs.Span, o *outcome, stream []byte, records, passes int) error {
	var b binrec.Batch
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d, err := perItem(tr, root, "binrec/decode", records*passes, func() error {
		dec := binrec.NewDecoder(bytes.NewReader(stream))
		for p := 0; p < passes; p++ {
			dec.Reset(bytes.NewReader(stream))
			for {
				err := dec.Next(&b)
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	o.layers["binrec.decode_ns_per_record"] = metric{ns(d), "ns"}
	o.layers["binrec.decode_alloc_bytes_per_record"] = metric{
		float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(records*passes), "B"}
	return nil
}

// policyLayers times the policy set's probability calls and one-worker
// Registry.Fold over the records, passes times.
func policyLayers(tr *obs.Tracer, root *obs.Span, o *outcome, pts []core.Datapoint, ps policySet, passes int) error {
	var sink float64
	d, err := perItem(tr, root, "policy/eval", len(pts)*passes, func() error {
		for p := 0; p < passes; p++ {
			for i := range pts {
				for _, pol := range ps.pols {
					sink += core.ActionProb(pol, &pts[i].Context, pts[i].Action)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sink < 0 {
		return fmt.Errorf("negative probability sum")
	}
	o.layers["policy.eval_ns_per_record"] = metric{ns(d), "ns"}
	reg, err := harvestd.NewRegistry(1, 10)
	if err != nil {
		return err
	}
	if err := ps.register(reg); err != nil {
		return err
	}
	d, err = perItem(tr, root, "harvestd/fold", len(pts)*passes, func() error {
		for p := 0; p < passes; p++ {
			for i := range pts {
				reg.Fold(0, &pts[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.layers["harvestd.fold_ns_per_record"] = metric{ns(d), "ns"}
	return nil
}

// decodeSource is a harvestd Source that decodes a binrec stream itself,
// the way BinSource does, and times only its Sink.EmitBatch calls: the wait
// to hand a batch to the worker queue.
type decodeSource struct {
	stream []byte
	wait   time.Duration
}

func (s *decodeSource) Name() string { return "bench-decode" }

func (s *decodeSource) Run(ctx context.Context, sink *harvestd.Sink) error {
	const depth = 4
	free := make(chan *binrec.Batch, depth)
	for i := 0; i < depth; i++ {
		//lint:ignore ctxloop priming a buffered free list; capacity equals the trip count, sends never block
		free <- new(binrec.Batch)
	}
	dec := binrec.NewDecoder(bytes.NewReader(s.stream))
	for {
		var b *binrec.Batch
		select {
		case b = <-free:
		case <-ctx.Done():
			return nil
		}
		err := dec.Next(b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		sink.Lines(len(b.Points))
		bb := b
		t0 := time.Now()
		err = sink.EmitBatch(ctx, bb.Points, func() { free <- bb })
		s.wait += time.Since(t0)
		if err != nil {
			return nil
		}
	}
}

// runInProcess runs an in-process daemon over src until n records are
// folded and returns the elapsed time. While it folds, Registry.Estimates
// is called every millisecond and each call timed.
func runInProcess(tr *obs.Tracer, parent *obs.Span, name string, ps policySet, src harvestd.Source, n int64) (time.Duration, []float64, error) {
	reg, err := harvestd.NewRegistry(runtime.GOMAXPROCS(0), 10)
	if err != nil {
		return 0, nil, err
	}
	if err := ps.register(reg); err != nil {
		return 0, nil, err
	}
	d, err := harvestd.New(harvestd.Config{Workers: runtime.GOMAXPROCS(0)}, reg)
	if err != nil {
		return 0, nil, err
	}
	d.AddSource(src)
	sp := tr.Start(name, parent, map[string]any{"records": n})
	t0 := time.Now()
	if err := d.Start(context.Background()); err != nil {
		return 0, nil, err
	}
	var est []float64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			c := tr.Start("harvestd/estimates", sp, nil)
			t := time.Now()
			reg.Estimates(0.05)
			est = append(est, us(time.Since(t)))
			c.End()
			time.Sleep(time.Millisecond)
		}
	}()
	deadline := time.Now().Add(runDeadline)
	for reg.TotalN() < n && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(t0)
	done.Store(true)
	wg.Wait()
	sp.End()
	got := reg.TotalN()
	if err := d.Shutdown(context.Background()); err != nil {
		return 0, nil, err
	}
	if got != n {
		return 0, nil, fmt.Errorf("%s folded %d of %d records", name, got, n)
	}
	return elapsed, est, nil
}

// backfillLayers decomposes the binary ingest path into decode, enqueue
// wait and fold per record, sets them against the whole in-process
// pipeline, and reports the remainder rather than hiding it. Stages run
// concurrently in the pipeline, so the remainder can be negative.
func backfillLayers(tr *obs.Tracer, root *obs.Span, o *outcome, block []core.Datapoint, header, body []byte, ps policySet) error {
	const passes = 4
	stream := append([]byte(nil), header...)
	for p := 0; p < passes; p++ {
		stream = append(stream, body...)
	}
	records := len(block) * passes
	if err := decodeLayer(tr, root, o, stream, records, 1); err != nil {
		return err
	}
	if err := policyLayers(tr, root, o, block, ps, 2); err != nil {
		return err
	}
	ds := &decodeSource{stream: stream}
	if _, _, err := runInProcess(tr, root, "harvestd/enqueue", ps, ds, int64(records)); err != nil {
		return err
	}
	o.layers["harvestd.enqueue_wait_ns_per_record"] = metric{ns(ds.wait) / float64(records), "ns"}
	elapsed, est, err := runInProcess(tr, root, "harvestd/pipeline", ps,
		&harvestd.BinSource{R: bytes.NewReader(stream)}, int64(records))
	if err != nil {
		return err
	}
	pipe := ns(elapsed) / float64(records)
	o.layers["harvestd.pipeline_ns_per_record"] = metric{pipe, "ns"}
	o.layers["harvestd.unexplained_ns_per_record"] = metric{pipe -
		o.layers["binrec.decode_ns_per_record"].Value -
		o.layers["harvestd.enqueue_wait_ns_per_record"].Value -
		o.layers["harvestd.fold_ns_per_record"].Value, "ns"}
	o.layers["harvestd.estimates_us"] = metric{median(est), "us"}
	return nil
}

// timedWriter times every Write of the access log the proxy writes.
type timedWriter struct {
	w      io.Writer
	mu     sync.Mutex
	writes int64
	bytes  int64
	spent  time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	d := time.Since(t0)
	t.mu.Lock()
	t.writes++
	t.bytes += int64(n)
	t.spent += d
	t.mu.Unlock()
	return n, err
}

// liveLayers times the live path's layers from outside: the proxy against
// its own backends, the access log writer, the routing decision, text
// parsing of the captured logs, the fold, and the fleet and rollout reads
// against the running shards and aggregator.
func liveLayers(tr *obs.Tracer, root *obs.Span, o *outcome, e *env, logs []string, ps policySet, shards []string, agg string) error {
	var lines []string
	for _, l := range logs {
		b, err := os.ReadFile(l)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				lines = append(lines, line)
			}
		}
	}
	if len(lines) == 0 {
		return fmt.Errorf("no captured access-log lines")
	}
	const passes = 5
	var pts []core.Datapoint
	d, err := perItem(tr, root, "harvester/parse", len(lines)*passes, func() error {
		for p := 0; p < passes; p++ {
			pts = pts[:0]
			for _, line := range lines {
				ent, err := harvester.ParseNginxLine(line)
				if err != nil {
					return err
				}
				dp, ok, err := harvester.EntryToTypedDatapoint(ent, 1)
				if err != nil {
					return err
				}
				if ok {
					pts = append(pts, dp)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.layers["harvester.parse_ns_per_line"] = metric{ns(d), "ns"}

	r := stats.NewRand(e.seed)
	blend, err := policy.NewDynamicBlend(lbsim.LeastLoaded{}, policy.UniformRandom{R: stats.Split(r)}, 0.05, stats.Split(r))
	if err != nil {
		return err
	}
	cr := stats.Split(r)
	picks := 0
	d, err = perItem(tr, root, "policy/decide", len(pts)*passes, func() error {
		for p := 0; p < passes; p++ {
			for i := range pts {
				picks += stats.Categorical(cr, blend.Distribution(&pts[i].Context))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if picks < 0 {
		return fmt.Errorf("no routing decision")
	}
	o.layers["policy.decide_ns"] = metric{ns(d), "ns"}
	if err := policyLayers(tr, root, o, pts, ps, passes); err != nil {
		return err
	}
	if err := proxyLayers(tr, root, o, e); err != nil {
		return err
	}
	if err := fleetLayers(tr, root, o, shards); err != nil {
		return err
	}
	ctl, err := rollout.New(rollout.Config{
		Candidate: "leastloaded",
		Baseline:  "uniform",
		Objective: rollout.Minimize,
		Harvest:   &rollout.HTTPHarvest{BaseURL: agg},
	})
	if err != nil {
		return err
	}
	d, err = perCall(tr, root, "rollout/step", 20, func() error {
		_, err := ctl.Step(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	o.layers["rollout.step_ms"] = metric{ms(d), "ms"}
	return nil
}

// proxyLayers runs an in-process proxy over in-process backends at one
// lbd's share of the live rate, then sends the same rate straight to the
// backends; the difference of the median latencies is the proxy's own
// cost. The proxy's access log goes through a timed writer to a file.
func proxyLayers(tr *obs.Tracer, root *obs.Span, o *outcome, e *env) error {
	base, err := time.ParseDuration(liveBase)
	if err != nil {
		return err
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		be, err := netlb.StartBackend(i, time.Duration(float64(base)*(1+0.5*float64(i))), 500*time.Microsecond)
		if err != nil {
			return err
		}
		defer be.Close()
		addrs = append(addrs, be.Addr())
	}
	f, err := os.Create(filepath.Join(e.work, "proxy.log"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := &timedWriter{w: f}
	r := stats.NewRand(e.seed + 1)
	px, err := netlb.NewProxy(addrs, policy.UniformRandom{R: stats.Split(r)}, stats.Split(r), tw)
	if err != nil {
		return err
	}
	if _, err := px.Start(); err != nil {
		return err
	}
	defer px.Close()
	c := newClient()
	dur := 2 * time.Second
	rate := float64(liveRate) / 2
	pick := stats.Split(r)
	targets := make([]string, 0, int(rate*dur.Seconds())*2)
	for i := 0; i < cap(targets); i++ {
		targets = append(targets, addrs[pick.Intn(2)])
	}
	run := func(name string, url func(i int) string) ([]float64, error) {
		s := &stream{name: name, sched: poissonSchedule(stats.Split(r), rate, dur), do: func(i int) error {
			_, err := get(c, url(i))
			return err
		}}
		runStreams(time.Now(), tr, root, s)
		lat, _, failed := s.latenciesMS()
		if failed > 0 {
			return nil, fmt.Errorf("%s: %v", name, s.firstErr())
		}
		return lat, nil
	}
	proxied, err := run("netlb-proxied", func(int) string { return px.URL() + "/x" })
	if err != nil {
		return err
	}
	direct, err := run("netlb-direct", func(i int) string { return "http://" + targets[i%len(targets)] + "/x" })
	if err != nil {
		return err
	}
	o.layers["netlb.proxy_self_p50_us"] = metric{(median(proxied) - median(direct)) * 1000, "us"}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.writes == 0 {
		return fmt.Errorf("proxy wrote no access-log lines")
	}
	o.layers["netlb.log_write_us"] = metric{us(tw.spent) / float64(tw.writes), "us"}
	o.layers["netlb.log_bytes_per_req"] = metric{float64(tw.bytes) / float64(tw.writes), "B"}
	return nil
}

// fleetLayers times the aggregation tier against the running shards: a
// synchronous pull of every shard, decoding their snapshots, the merge,
// and the /estimates handler of an in-process aggregator.
func fleetLayers(tr *obs.Tracer, root *obs.Span, o *outcome, shards []string) error {
	c := newClient()
	var specs []fleet.Shard
	var payloads [][]byte
	for i, s := range shards {
		specs = append(specs, fleet.Shard{Name: fmt.Sprintf("shard-%d", i), URL: s})
		b, err := get(c, s+"/snapshot")
		if err != nil {
			return err
		}
		payloads = append(payloads, b)
	}
	a, err := fleet.New(fleet.Config{Shards: specs, Addr: "127.0.0.1:0", PullInterval: time.Hour})
	if err != nil {
		return err
	}
	if err := a.Start(context.Background()); err != nil {
		return err
	}
	defer func() { _ = a.Shutdown(context.Background()) }() // measurement done; nothing to persist
	d, err := perCall(tr, root, "fleet/pull", 20, func() error { return a.PullAll(context.Background()) })
	if err != nil {
		return err
	}
	o.layers["fleet.pull_ms"] = metric{ms(d), "ms"}
	i := 0
	d, err = perCall(tr, root, "fleet/snapshot_decode", 20*len(payloads), func() error {
		_, err := harvestd.DecodeSnapshot(bytes.NewReader(payloads[i%len(payloads)]))
		i++
		return err
	})
	if err != nil {
		return err
	}
	o.layers["fleet.snapshot_decode_us"] = metric{us(d), "us"}
	d, err = perCall(tr, root, "fleet/merge", 50, func() error {
		if len(a.Estimates(0.05)) == 0 {
			return fmt.Errorf("empty merged estimates")
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.layers["fleet.merge_us"] = metric{us(d), "us"}
	d, err = perCall(tr, root, "fleet/estimates_http", 50, func() error {
		_, err := get(c, a.URL()+"/estimates")
		return err
	})
	if err != nil {
		return err
	}
	o.layers["fleet.estimates_http_us"] = metric{us(d), "us"}
	return nil
}

// faninLayers times the fan-in path's layers: decode and fold of 32-action
// records over 34 policies, one shard's snapshot encode, the binary ingest
// handler of an in-process daemon, and the fleet reads.
func faninLayers(tr *obs.Tracer, root *obs.Span, o *outcome, batches []faninBatchT, ps policySet, shards []string) error {
	const nb = 200
	var pts []core.Datapoint
	for _, b := range batches[:min(nb, len(batches))] {
		pts = append(pts, b.pts...)
	}
	stream, err := encodeRecords(pts, true)
	if err != nil {
		return err
	}
	if err := decodeLayer(tr, root, o, stream, len(pts), 4); err != nil {
		return err
	}
	if err := policyLayers(tr, root, o, pts, ps, 1); err != nil {
		return err
	}

	reg, err := harvestd.NewRegistry(1, 10)
	if err != nil {
		return err
	}
	if err := ps.register(reg); err != nil {
		return err
	}
	for i := range pts {
		reg.Fold(0, &pts[i])
	}
	d, err := harvestd.New(harvestd.Config{Workers: 1, ShardID: "bench"}, reg)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	dur, err := perCall(tr, root, "harvestd/snapshot_encode", 50, func() error {
		buf.Reset()
		snap := d.StateSnapshot()
		return harvestd.EncodeSnapshot(&buf, &snap)
	})
	if err != nil {
		return err
	}
	o.layers["harvestd.snapshot_encode_us"] = metric{us(dur), "us"}
	o.layers["harvestd.snapshot_bytes"] = metric{float64(buf.Len()), "B"}

	reg2, err := harvestd.NewRegistry(runtime.GOMAXPROCS(0), 10)
	if err != nil {
		return err
	}
	if err := ps.register(reg2); err != nil {
		return err
	}
	d2, err := harvestd.New(harvestd.Config{Addr: "127.0.0.1:0", Workers: runtime.GOMAXPROCS(0)}, reg2)
	if err != nil {
		return err
	}
	if err := d2.Start(context.Background()); err != nil {
		return err
	}
	bodies := make([][]byte, min(nb, len(batches)))
	for i := range bodies {
		if bodies[i], err = encodeRecords(batches[i].pts, true); err != nil {
			return err
		}
	}
	c := newClient()
	i := 0
	dur, err = perCall(tr, root, "harvestd/ingest_bin", len(bodies), func() error {
		resp, err := c.Post(d2.URL()+"/ingest?format=bin", "application/octet-stream", bytes.NewReader(bodies[i]))
		i++
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != 200 {
			return fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return nil
	})
	if serr := d2.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	o.layers["harvestd.ingest_bin_us_per_batch"] = metric{us(dur), "us"}
	return fleetLayers(tr, root, o, shards)
}

// finishTrace writes the traced run's spans, validates them with the
// repository's tracecat, and reports each layer's self time: its spans'
// durations minus the part of each span its children cover.
func finishTrace(e *env, name string, tr *obs.Tracer, buf *bytes.Buffer, o *outcome) error {
	if err := tr.Err(); err != nil {
		return err
	}
	path := filepath.Join(e.work, "trace-"+name+".jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if out, err := exec.Command(binPath(e, "tracecat"), path).CombinedOutput(); err != nil {
		o.fail("tracecat rejected the span file: %v\n%s", err, tail(string(out), 2000))
	}
	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		o.fail("span file: %v", err)
		return nil
	}
	for layer, self := range selfTimes(recs) {
		o.detail["self_ms."+layer] = metric{self / 1000, "ms"}
	}
	o.detail["trace.spans"] = metric{float64(len(recs)), "count"}
	return nil
}

// selfTimes sums, per layer (the span name up to its first '/'), each
// span's duration minus the union of its children's intervals, in µs.
func selfTimes(recs []obs.Record) map[string]float64 {
	kids := map[uint64][]obs.Record{}
	for _, r := range recs {
		if r.Type == "span" && r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	out := map[string]float64{}
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		ch := kids[r.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartUS < ch[j].StartUS })
		lo, hi := r.StartUS, r.StartUS+r.DurUS
		covered, cur := int64(0), lo
		for _, c := range ch {
			s, f := max(c.StartUS, cur), min(c.StartUS+c.DurUS, hi)
			if f > s {
				covered += f - s
				cur = f
			}
		}
		layer, _, _ := strings.Cut(r.Name, "/")
		out[layer] += float64(r.DurUS - covered)
	}
	return out
}
