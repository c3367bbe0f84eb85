package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
)

const (
	// faninShards harvestd shards feed one aggregator.
	faninShards = 8
	// faninActions is the records' action count; the policy set is
	// uniform, leastloaded and one constant policy per action.
	faninActions = 32
	// faninBatch records go in one POST /ingest?format=bin.
	faninBatch = 32
	// faninBatchRate batches per second (16k records/s), well below what
	// the shards fold with 34 policies on two vCPUs.
	faninBatchRate = 500
	// faninReadRate is the aggregator /estimates read rate.
	faninReadRate = 100
)

// faninBatchT is one POST's records and the shard they go to.
type faninBatchT struct {
	shard int
	pts   []core.Datapoint
}

// faninInput routes seeded records to shards by key and cuts each shard's
// stream into fixed-size batches, in arrival order. It returns the batches
// and every record they carry.
func faninInput(r *rand.Rand, router *fleet.Router, batches int) ([]faninBatchT, core.Dataset) {
	kr := stats.Split(r)
	pending := make([][]core.Datapoint, faninShards)
	var out []faninBatchT
	seq := int64(1)
	for len(out) < batches {
		pts := genRecords(r, 256, faninActions, seq)
		seq += int64(len(pts))
		for _, p := range pts {
			s := router.AssignIndex(fmt.Sprintf("src-%d", kr.Intn(1024)))
			pending[s] = append(pending[s], p)
			if len(pending[s]) < faninBatch {
				continue
			}
			out = append(out, faninBatchT{shard: s, pts: pending[s]})
			pending[s] = nil
			if len(out) == batches {
				break
			}
		}
	}
	all := make(core.Dataset, 0, batches*faninBatch)
	for _, b := range out {
		all = append(all, b.pts...)
	}
	return out, all
}

// runFanin measures eight harvestd shards fed by pushed binrec batches and
// one aggregator read at a fixed rate.
func runFanin(e *env) (*outcome, error) {
	dur := time.Duration(e.seconds / rounds * float64(time.Second))
	ps := newPolicySet(faninActions)
	names := make([]string, faninShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	router, err := fleet.NewRouter(names)
	if err != nil {
		return nil, err
	}
	sched := fixedSchedule(faninBatchRate, dur)
	r := stats.NewRand(e.seed)
	seeds := make([]int64, rounds)
	for k := range seeds {
		seeds[k] = r.Int63()
	}
	c := newClient()

	return runRounds(e, "fanin-read", func(k int, load bool, tr *obs.Tracer, root *obs.Span, timeLayers bool) (*outcome, error) {
		o := newOutcome()
		var (
			shards []string
			agg    string
			debugs map[string][]string
		)
		sys, setup, err := launch(func() (*system, error) {
			ports, err := freePorts(2*faninShards + 2)
			if err != nil {
				return nil, err
			}
			sys := &system{}
			fail := func(err error) (*system, error) {
				_ = sys.stopAll() // already failing; err says why
				return nil, err
			}
			shards = make([]string, faninShards)
			debugs = map[string][]string{"harvestagg": {ports[2*faninShards+1]}}
			var spec []string
			for i := range shards {
				shards[i] = "http://" + ports[i]
				debugs["harvestd"] = append(debugs["harvestd"], ports[faninShards+i])
				spec = append(spec, names[i]+"="+shards[i])
				p, err := startProc(names[i], binPath(e, "harvestd"), "-addr", ports[i],
					"-debug-addr", ports[faninShards+i], "-policies", ps.spec, "-shard-id", names[i])
				if err != nil {
					return fail(err)
				}
				sys.add(p)
			}
			agg = "http://" + ports[2*faninShards]
			pa, err := startProc("harvestagg", binPath(e, "harvestagg"), "-addr", ports[2*faninShards],
				"-debug-addr", ports[2*faninShards+1], "-pull-interval", "100ms", "-shards", strings.Join(spec, ","))
			if err != nil {
				return fail(err)
			}
			sys.add(pa)
			deadline := time.Now().Add(runDeadline)
			for i, u := range append(append([]string(nil), shards...), agg) {
				if err := waitHealthy(c, u+"/healthz", "ok", sys.procs[i], deadline); err != nil {
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
		batches, all := faninInput(stats.NewRand(seeds[k]), router, len(sched))
		refs, err := ps.references(all)
		if err != nil {
			return nil, err
		}
		acks := &ackLog{}
		ingest := &stream{
			name:  "ingest",
			sched: sched,
			do: func(i int) error {
				b := batches[i]
				body, err := encodeRecords(b.pts, true)
				if err != nil {
					return err
				}
				resp, err := c.Post(shards[b.shard]+"/ingest?format=bin", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					return err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode != 200 {
					return fmt.Errorf("POST /ingest: HTTP %d", resp.StatusCode)
				}
				acks.add(int64(len(b.pts)))
				return nil
			},
		}
		ests, late, err := openLoop(o, c, sys, agg, faninReadRate, dur, acks, ingest, "ingest", tr, root)
		if err != nil {
			return nil, err
		}
		// Correctness: the merged estimates equal the batch estimators over
		// every pushed record.
		checkEstimates(ests, refs, o)
		if err := shardRejects(c, shards, o); err != nil {
			return nil, err
		}

		if timeLayers {
			o.layers["loadgen.late_p50_ms"] = metric{quantile(late, 0.5), "ms"}
			o.layers["loadgen.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
			if err := daemonLayers(c, o, shards, debugs); err != nil {
				return nil, err
			}
			if err := faninLayers(tr, root, o, batches, ps, shards); err != nil {
				return nil, err
			}
		}
		stopped = true
		return o, sys.stopAll()
	})
}
