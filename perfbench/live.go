package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/harvestd"
	"repro/internal/obs"
	"repro/internal/stats"
)

const (
	// liveRate is the total proxied request rate, Poisson arrivals: well
	// below what two proxies on two vCPUs saturate at.
	liveRate = 1000
	// liveProbeRate is the aggregator /estimates read rate; the reads time
	// queries and detect freshness.
	liveProbeRate = 100
	// liveBase is the backend base service time: small, so the proxy's own
	// cost is a visible share of request latency.
	liveBase = "200us"
)

var proxyAddrRE = regexp.MustCompile(`proxy \(.*\) at http://(\S+)`)

// ackLog records acknowledged writes with their running record count; one
// lock orders count and time together. t0 is set before the writes start.
type ackLog struct {
	mu    sync.Mutex
	t0    time.Time
	count int64
	acks  []ack
}

func (a *ackLog) add(records int64) {
	a.mu.Lock()
	a.count += records
	a.acks = append(a.acks, ack{at: time.Since(a.t0), count: a.count})
	a.mu.Unlock()
}

// probeLog records estimates reads.
type probeLog struct {
	mu     sync.Mutex
	probes []probe
}

func (p *probeLog) add(pr probe) {
	p.mu.Lock()
	p.probes = append(p.probes, pr)
	p.mu.Unlock()
}

// readMergedN reads the merged estimates and returns the smallest record
// count among their policies (0 if none is listed). A shard folds a record
// into its policies one at a time and snapshots them one at a time, so one
// policy's count can be ahead of another's until the fold settles; the
// estimates cover a write only once every policy's count does.
func readMergedN(c *http.Client, url string) (int64, []harvestd.PolicyEstimate, error) {
	var ests []harvestd.PolicyEstimate
	if err := getJSON(c, url, &ests); err != nil {
		return 0, nil, err
	}
	if len(ests) == 0 {
		return 0, ests, nil
	}
	n := ests[0].N
	for _, pe := range ests[1:] {
		n = min(n, pe.N)
	}
	return n, ests, nil
}

// runLive measures the live loop: two lbd proxies writing access logs,
// each tailed by its own harvestd, one harvestagg over both, and an
// observe-only rolloutd polling the aggregator.
func runLive(e *env) (*outcome, error) {
	r := stats.NewRand(e.seed)
	dur := time.Duration(e.seconds / rounds * float64(time.Second))
	type input struct {
		sched  []time.Duration
		keys   []string
		lbSeed int64
	}
	ins := make([]input, rounds)
	for k := range ins {
		ins[k].sched = poissonSchedule(stats.Split(r), liveRate, dur)
		kr := stats.Split(r)
		ins[k].keys = make([]string, len(ins[k].sched))
		for i := range ins[k].keys {
			ins[k].keys[i] = fmt.Sprintf("user-%d", kr.Intn(1<<16))
		}
		ins[k].lbSeed = r.Int63()
	}
	ps := newPolicySet(2)
	router, err := fleet.NewRouter([]string{"lb-a", "lb-b"})
	if err != nil {
		return nil, err
	}
	dir, err := runDir(e, "live")
	if err != nil {
		return nil, err
	}
	logs := []string{filepath.Join(dir, "lb-a.log"), filepath.Join(dir, "lb-b.log")}
	c := newClient()

	return runRounds(e, "live-nginx", func(k int, load bool, tr *obs.Tracer, root *obs.Span, timeLayers bool) (*outcome, error) {
		o := newOutcome()
		in := ins[k]
		var (
			proxies [2]string
			shards  [2]string
			agg     string
			debugs  map[string][]string
		)
		sys, setup, err := launch(func() (*system, error) {
			ports, err := freePorts(9)
			if err != nil {
				return nil, err
			}
			for _, l := range logs {
				if err := os.WriteFile(l, nil, 0o644); err != nil {
					return nil, err
				}
			}
			sys := &system{}
			fail := func(err error) (*system, error) {
				_ = sys.stopAll() // already failing; err says why
				return nil, err
			}
			debugs = map[string][]string{"lbd": {ports[0], ports[1]}, "harvestd": {ports[4], ports[5]}, "harvestagg": {ports[7]}}
			shards = [2]string{"http://" + ports[2], "http://" + ports[3]}
			agg = "http://" + ports[6]
			// The daemons on reserved ports start before the proxies, whose
			// backends bind ephemeral ports that could otherwise take one.
			for i := 0; i < 2; i++ {
				p, err := startProc(fmt.Sprintf("harvestd-%d", i), binPath(e, "harvestd"), "-addr", ports[2+i],
					"-debug-addr", ports[4+i], "-nginx", logs[i], "-follow", "-policies", ps.spec,
					"-shard-id", fmt.Sprintf("shard-%d", i))
				if err != nil {
					return fail(err)
				}
				sys.add(p)
			}
			pa, err := startProc("harvestagg", binPath(e, "harvestagg"), "-addr", ports[6], "-debug-addr", ports[7],
				"-pull-interval", "100ms", "-shards", "shard-0="+shards[0]+",shard-1="+shards[1])
			if err != nil {
				return fail(err)
			}
			sys.add(pa)
			// Observe-only: with -actuate the controller would shift traffic
			// mid-run and change latency between runs.
			pr, err := startProc("rolloutd", binPath(e, "rolloutd"), "-addr", ports[8], "-harvest", agg,
				"-candidate", "leastloaded", "-baseline", "uniform", "-objective", "min", "-poll-interval", "200ms")
			if err != nil {
				return fail(err)
			}
			sys.add(pr)
			var lbds [2]*proc
			for i := 0; i < 2; i++ {
				p, err := startProc(fmt.Sprintf("lbd-%d", i), binPath(e, "lbd"), "-requests", "0",
					"-policy", "random", "-backends", "2", "-base", liveBase, "-log", logs[i],
					"-seed", fmt.Sprint(in.lbSeed+int64(i)), "-debug-addr", ports[i])
				if err != nil {
					return fail(err)
				}
				sys.add(p)
				lbds[i] = p
			}

			deadline := time.Now().Add(runDeadline)
			for i, u := range []string{shards[0], shards[1], agg, "http://" + ports[8]} {
				if err := waitHealthy(c, u+"/healthz", "ok", sys.procs[i], deadline); err != nil {
					return fail(err)
				}
			}
			for i, p := range lbds {
				addr, err := p.waitOutput(proxyAddrRE, deadline)
				if err != nil {
					return fail(err)
				}
				proxies[i] = "http://" + addr
				// The proxy has no health endpoint of its own; a proxied
				// request answering 2xx is its health check. It is a real
				// request, so it is logged and harvested like the load.
				if err := waitHealthy(c, proxies[i]+"/healthz", "backend", p, deadline); err != nil {
					return fail(err)
				}
			}
			return sys, nil
		})
		if err != nil {
			return nil, err
		}
		stopped := false
		defer func() {
			if !stopped {
				_ = sys.stopAll() // error path; the run already failed
			}
		}()

		o.setups = []float64{setup}
		if !load {
			stopped = true
			return o, sys.stopAll()
		}
		acks := &ackLog{count: 2} // the two proxy health checks
		reqs := &stream{
			name:  "request",
			sched: in.sched,
			do: func(i int) error {
				resp, err := c.Get(proxies[router.AssignIndex(in.keys[i])] + "/u/" + in.keys[i])
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode/100 != 2 {
					return fmt.Errorf("proxied request: HTTP %d", resp.StatusCode)
				}
				acks.add(1)
				return nil
			},
		}
		ests, late, err := openLoop(o, c, sys, agg, liveProbeRate, dur, acks, reqs, "req", tr, root)
		if err != nil {
			return nil, err
		}
		// Correctness: after the drain the merged count equals the 2xx
		// responses the generator received, for every policy.
		for _, pe := range ests {
			if pe.N != acks.count {
				o.fail("policy %s: merged n = %d, want %d 2xx responses", pe.Policy, pe.N, acks.count)
			}
		}
		if len(ests) != len(ps.names) {
			o.fail("merged estimates list %d policies, want %d", len(ests), len(ps.names))
		}
		if err := shardRejects(c, shards[:], o); err != nil {
			return nil, err
		}

		if timeLayers {
			o.layers["loadgen.late_p50_ms"] = metric{quantile(late, 0.5), "ms"}
			o.layers["loadgen.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
			if err := daemonLayers(c, o, shards[:], debugs); err != nil {
				return nil, err
			}
			if err := liveLayers(tr, root, o, e, logs, ps, shards[:], agg); err != nil {
				return nil, err
			}
		}
		stopped = true
		return o, sys.stopAll()
	})
}

// openLoop drives one open-loop round against a running topology: the
// write stream and a fixed-rate reader of the aggregator's /estimates run
// together, then the reader drains until the merged count covers every
// acknowledged write. It records the round's measurements, with the writes
// (named kind) as the timed operation. It returns the merged
// estimates after the drain and how late the generator sent each
// operation.
func openLoop(o *outcome, c *http.Client, sys *system, agg string, readRate float64,
	dur time.Duration, acks *ackLog, writes *stream, kind string, tr *obs.Tracer, root *obs.Span,
) ([]harvestd.PolicyEstimate, []float64, error) {
	probes := &probeLog{}
	cpu0, err := sys.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	acks.t0 = t0
	before := acks.count
	reads := &stream{
		name:  "estimates",
		sched: fixedSchedule(readRate, dur),
		do: func(int) error {
			sent := time.Since(t0)
			n, _, err := readMergedN(c, agg+"/estimates")
			if err != nil {
				return err
			}
			probes.add(probe{sent: sent, recv: time.Since(t0), n: n})
			return nil
		},
	}
	runStreams(t0, tr, root, writes, reads)
	cpu1, err := sys.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	rss, err := sys.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	ests, err := drainProbes(c, agg+"/estimates", acks.count, t0, probes)
	if err != nil {
		return nil, nil, err
	}

	wLat, wAtt, wFail := writes.latenciesMS()
	qLat, qAtt, qFail := reads.latenciesMS()
	fresh, uncovered := freshnessMS(acks.acks, probes.probes)
	if len(wLat) == 0 || len(qLat) == 0 || len(fresh) == 0 {
		return nil, nil, fmt.Errorf("no samples: %s %v, reads %v", kind, writes.firstErr(), reads.firstErr())
	}
	o.attempted = wAtt + qAtt
	o.failed = wFail + qFail
	if o.failed > 0 {
		o.fail("%d %s and %d reads failed: %v %v", wFail, kind, qFail, writes.firstErr(), reads.firstErr())
	}
	if uncovered > 0 {
		o.fail("%d acknowledged writes never reached the merged estimates", uncovered)
	}
	o.op = kind
	o.samples[kind] = wLat
	o.samples["query"] = qLat
	o.samples["fresh"] = fresh
	o.cpu = cpu1 - cpu0
	o.work, o.secs = float64(acks.count-before), writes.lastDone().Seconds()
	o.rss = []float64{rss}
	return ests, append(writes.lateMS(), reads.lateMS()...), nil
}

// drainProbes keeps reading merged estimates every 10ms until every
// policy's count reaches want, recording each read for the freshness computation.
func drainProbes(c *http.Client, url string, want int64, t0 time.Time, probes *probeLog) ([]harvestd.PolicyEstimate, error) {
	deadline := time.Now().Add(runDeadline)
	for {
		sent := time.Since(t0)
		n, ests, err := readMergedN(c, url)
		if err != nil {
			return nil, err
		}
		probes.add(probe{sent: sent, recv: time.Since(t0), n: n})
		if n >= want || time.Now().After(deadline) {
			return ests, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// shardRejects counts records the shards could not parse or use as failed
// operations.
func shardRejects(c *http.Client, shards []string, o *outcome) error {
	for _, s := range shards {
		snap, err := fetchSnapshot(c, s)
		if err != nil {
			return err
		}
		if bad := snap.Counters.ParseErrors + snap.Counters.Rejected; bad != 0 {
			o.failed += bad
			o.fail("shard %s: %d parse errors, %d rejected records", s, snap.Counters.ParseErrors, snap.Counters.Rejected)
		}
	}
	return nil
}
