package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/harvestd"
	"repro/internal/obs"
	"repro/internal/stats"
)

const (
	// backfillBlock distinct records are generated and their encoding is
	// repeated until the stream holds N records: the fold does the same
	// work per record, the reference estimate is exact for the repeated
	// stream, and a multi-GB input costs neither memory nor disk.
	backfillBlock = 1 << 16
	// backfillRate sizes a round's N: records per requested second. It is
	// near the fold rate measured on a 2-vCPU machine (2.2M-3M records/s),
	// so a run measures for about the requested time.
	backfillRate = 2.4e6
	// backfillReadRate is the dashboard reader's GET /estimates rate.
	backfillReadRate = 100
	// runDeadline bounds any one phase of a run, so a hung daemon ends the
	// run with an error well inside the three-minute budget.
	runDeadline = 100 * time.Second
)

func binPath(e *env, name string) string { return filepath.Join(e.bin, name) }

// runBackfill measures one harvestd folding a long binrec stream from a
// named pipe while a dashboard reader polls its estimates.
func runBackfill(e *env) (*outcome, error) {
	r := stats.NewRand(e.seed)
	block := genRecords(r, backfillBlock, 2, 1)
	ps := newPolicySet(1)
	refs, err := ps.references(block)
	if err != nil {
		return nil, err
	}
	reps := int(math.Ceil(backfillRate * e.seconds / rounds / backfillBlock))
	total := int64(reps) * backfillBlock
	for i := range refs {
		refs[i].n = total
	}
	header, err := encodeRecords(nil, true)
	if err != nil {
		return nil, err
	}
	body, err := encodeRecords(block, false)
	if err != nil {
		return nil, err
	}
	dir, err := runDir(e, "backfill")
	if err != nil {
		return nil, err
	}
	fifo := filepath.Join(dir, "records.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		return nil, fmt.Errorf("mkfifo: %w", err)
	}
	c := newClient()

	return runRounds(e, "backfill-bin", func(_ int, load bool, tr *obs.Tracer, root *obs.Span, timeLayers bool) (*outcome, error) {
		o := newOutcome()
		var api, dbg string
		sys, setup, err := launch(func() (*system, error) {
			ports, err := freePorts(2)
			if err != nil {
				return nil, err
			}
			api, dbg = ports[0], ports[1]
			p, err := startProc("harvestd", binPath(e, "harvestd"), "-addr", api, "-debug-addr", dbg,
				"-bin", fifo, "-policies", ps.spec)
			if err != nil {
				return nil, err
			}
			sys := &system{procs: []*proc{p}}
			if err := waitHealthy(c, "http://"+api+"/healthz", "ok", p, time.Now().Add(runDeadline)); err != nil {
				_ = sys.stopAll() // already failing; the health error says why
				return nil, err
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
		base := "http://" + api

		w, err := openFIFOWriter(fifo, time.Now().Add(runDeadline))
		if err != nil {
			return nil, err
		}
		if !load {
			// An empty stream ends the source, so the daemon stops cleanly.
			o.setups = []float64{setup}
			stopped = true
			if err := w.Close(); err != nil {
				return nil, err
			}
			return o, sys.stopAll()
		}
		cpu0, err := sys.cpuSeconds()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		writeDone := make(chan error, 1)
		go func() {
			sp := tr.Start("loadgen/write", root, map[string]any{"records": total})
			defer sp.End()
			_, err := w.Write(header)
			for i := 0; i < reps && err == nil; i++ {
				_, err = w.Write(body)
			}
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			writeDone <- err
		}()

		reader := &stream{
			name:  "estimates",
			sched: fixedSchedule(backfillReadRate, runDeadline),
			do: func(int) error {
				_, err := get(c, base+"/estimates")
				return err
			},
		}
		type foldResult struct {
			at  time.Duration
			cpu float64
			err error
		}
		folded := make(chan foldResult, 1)
		go func() {
			defer reader.stop.Store(true)
			if err := <-writeDone; err != nil {
				folded <- foldResult{err: fmt.Errorf("writing records: %w", err)}
				return
			}
			at, err := waitFolded(c, base, total, t0)
			if err != nil {
				folded <- foldResult{err: err}
				return
			}
			cpu, err := sys.cpuSeconds()
			folded <- foldResult{at: at, cpu: cpu, err: err}
		}()
		runStreams(t0, tr, root, reader)
		fr := <-folded
		if fr.err != nil {
			return nil, fr.err
		}
		rss, err := sys.peakRSSMB()
		if err != nil {
			return nil, err
		}

		lat, attempted, failed := reader.latenciesMS()
		if len(lat) == 0 {
			return nil, fmt.Errorf("no estimates reads completed: %v", reader.firstErr())
		}
		o.attempted = attempted + total
		o.failed = failed
		if failed > 0 {
			o.fail("%d estimates reads failed: %v", failed, reader.firstErr())
		}
		o.setups = []float64{setup}
		o.op, o.rate = "query", "records_per_s"
		o.samples["query"] = lat
		o.cpu = fr.cpu - cpu0
		o.work, o.secs = float64(total), fr.at.Seconds()
		o.rss = []float64{rss}

		// Correctness: every record folded, none rejected, and each policy's
		// live estimate equal to the batch estimator over the same records.
		var ests []harvestd.PolicyEstimate
		if err := getJSON(c, base+"/estimates", &ests); err != nil {
			return nil, err
		}
		checkEstimates(ests, refs, o)
		snap, err := fetchSnapshot(c, base)
		if err != nil {
			return nil, err
		}
		if snap.Counters.Folded != total {
			o.fail("folded %d records, want %d", snap.Counters.Folded, total)
		}
		if bad := snap.Counters.ParseErrors + snap.Counters.Rejected; bad != 0 {
			o.failed += bad
			o.fail("%d parse errors and %d rejected records", snap.Counters.ParseErrors, snap.Counters.Rejected)
		}

		if timeLayers {
			o.layers["loadgen.late_p50_ms"] = metric{quantile(reader.lateMS(), 0.5), "ms"}
			o.layers["loadgen.late_p99_ms"] = metric{quantile(reader.lateMS(), 0.99), "ms"}
			if err := daemonLayers(c, o, []string{base}, map[string][]string{"harvestd": {dbg}}); err != nil {
				return nil, err
			}
			if err := backfillLayers(tr, root, o, block, header, body, ps); err != nil {
				return nil, err
			}
		}
		stopped = true
		return o, sys.stopAll()
	})
}

// openFIFOWriter opens the write end of a named pipe once its reader is
// there, retrying until the deadline instead of blocking forever on a
// reader that died.
func openFIFOWriter(path string, deadline time.Time) (*os.File, error) {
	for {
		f, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, syscall.ENXIO) || time.Now().After(deadline) {
			return nil, fmt.Errorf("opening %s for writing: %w", path, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFolded polls the daemon's /freshness until its fold count reaches
// want and returns when, relative to t0, the generator saw it.
func waitFolded(c *http.Client, base string, want int64, t0 time.Time) (time.Duration, error) {
	deadline := time.Now().Add(runDeadline)
	for {
		var fr harvestd.FreshnessReport
		if err := getJSON(c, base+"/freshness", &fr); err != nil {
			return 0, err
		}
		var folded int64
		for _, s := range fr.Sources {
			folded += s.Folded
		}
		if folded >= want {
			return time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("folded %d of %d records before the deadline", folded, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchSnapshot pulls and decodes a shard's /snapshot.
func fetchSnapshot(c *http.Client, base string) (*harvestd.StateSnapshot, error) {
	body, err := get(c, base+"/snapshot")
	if err != nil {
		return nil, err
	}
	return harvestd.DecodeSnapshot(bytes.NewReader(body))
}
