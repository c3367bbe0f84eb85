package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// stream is one open-loop operation sequence: operation i is due at
// sched[i] after the shared start, regardless of how earlier ones fared, so
// a stall shows as latency on every operation scheduled behind it. Each
// operation is timed from its due time. A dispatcher goroutine sleeps until
// each due time and hands the operation to a fixed pool of workers, large
// enough that the pool is never what delays an operation.
type stream struct {
	name  string
	sched []time.Duration
	do    func(i int) error
	// stop, when set, ends dispatch early (the backfill's reader stops once
	// the fold is done); undispatched operations are not counted.
	stop atomic.Bool

	sent   []time.Duration // when a worker started operation i
	doneAt []time.Duration // when operation i completed
	errs   []error
	ran    []bool
}

// streamWorkers is each stream's worker pool size: twice the connection
// cap, so an operation waits for a connection rather than for a worker.
const streamWorkers = 2 * maxConnsPerHost

// poissonSchedule draws arrivals at rate per second over dur.
func poissonSchedule(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// fixedSchedule spaces arrivals evenly at rate per second over dur.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// runStreams runs the streams concurrently from a shared start t0. With a
// tracer, every operation is a span under its stream's span.
func runStreams(t0 time.Time, tr *obs.Tracer, parent *obs.Span, streams ...*stream) {
	var wg sync.WaitGroup
	for _, s := range streams {
		s.sent = make([]time.Duration, len(s.sched))
		s.doneAt = make([]time.Duration, len(s.sched))
		s.errs = make([]error, len(s.sched))
		s.ran = make([]bool, len(s.sched))
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			s.run(t0, tr, parent)
		}(s)
	}
	wg.Wait()
}

func (s *stream) run(t0 time.Time, tr *obs.Tracer, parent *obs.Span) {
	sp := tr.Start("loadgen/"+s.name, parent, map[string]any{"scheduled": len(s.sched)})
	defer sp.End()
	work := make(chan int, len(s.sched)) // sized to the sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < streamWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s.sent[i] = time.Since(t0)
				op := tr.Start("system/"+s.name, sp, nil)
				s.errs[i] = s.do(i)
				op.End()
				s.doneAt[i] = time.Since(t0)
				s.ran[i] = true
			}
		}()
	}
	for i, due := range s.sched {
		if s.stop.Load() {
			break
		}
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
}

// latenciesMS returns the latency of every completed, successful operation
// from its due time, plus the counts attempted and failed.
func (s *stream) latenciesMS() (lat []float64, attempted, failed int64) {
	for i := range s.sched {
		if !s.ran[i] {
			continue
		}
		attempted++
		if s.errs[i] != nil {
			failed++
			continue
		}
		lat = append(lat, float64(s.doneAt[i]-s.sched[i])/float64(time.Millisecond))
	}
	return lat, attempted, failed
}

// lateMS returns how late the generator started each operation.
func (s *stream) lateMS() []float64 {
	var out []float64
	for i := range s.sched {
		if s.ran[i] {
			out = append(out, float64(s.sent[i]-s.sched[i])/float64(time.Millisecond))
		}
	}
	return out
}

// lastDone is when the last operation completed.
func (s *stream) lastDone() time.Duration {
	var last time.Duration
	for i := range s.sched {
		if s.ran[i] && s.doneAt[i] > last {
			last = s.doneAt[i]
		}
	}
	return last
}

// firstErr returns the first operation error, for reports.
func (s *stream) firstErr() error {
	for i := range s.errs {
		if s.ran[i] && s.errs[i] != nil {
			return s.errs[i]
		}
	}
	return nil
}

// quantile is the nearest-rank q-quantile; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ack is one acknowledged write: when the generator saw it succeed and the
// running count of records acknowledged up to and including it.
type ack struct {
	at    time.Duration
	count int64
}

// probe is one estimates read: when it was sent and answered, and the
// merged record count it reported.
type probe struct {
	sent, recv time.Duration
	n          int64
}

// freshnessMS gives, for each acknowledged write, the time from its
// acknowledgement to the answer of the first read sent after it whose
// merged count covers it. Estimates carry counts, not record identities,
// so "covers" means n >= the write's running count. Writes no read ever
// covered are returned as the second value.
func freshnessMS(acks []ack, probes []probe) (fresh []float64, uncovered int) {
	sort.Slice(acks, func(i, j int) bool { return acks[i].at < acks[j].at })
	sort.Slice(probes, func(i, j int) bool { return probes[i].sent < probes[j].sent })
	p := 0
	for _, a := range acks {
		for p < len(probes) && (probes[p].sent < a.at || probes[p].n < a.count) {
			p++
		}
		if p == len(probes) {
			uncovered++
			continue
		}
		fresh = append(fresh, float64(probes[p].recv-a.at)/float64(time.Millisecond))
	}
	return fresh, uncovered
}
