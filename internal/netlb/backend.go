// Package netlb is the real-network load-balancing substrate: an HTTP
// reverse proxy with pluggable routing policies and Nginx-style access
// logging, plus backends whose service time grows with concurrent requests
// — a live prototype of the paper's Nginx scenario (§3, §5).
//
// Where package lbsim reproduces Fig. 5 in a deterministic discrete-event
// world, netlb exercises the actual data path the paper harvested: real
// sockets, a real proxy making a randomized routing decision per request,
// and an access log from which ⟨x, a, r, p⟩ tuples are scavenged (see the
// harvester package's Nginx log parser).
package netlb

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
)

// Backend is an HTTP server whose handler holds each request for
// Base + Slope·(inflight−1): the Fig. 5 latency model with open
// connections replaced by in-flight requests. Optional per-type affinities
// add a penalty depending on the request's type (parsed from the path, see
// TypeFromPath) — the "different types of requests are processed
// differently by different servers" effect of §5.
type Backend struct {
	// ID is the backend's index in the LB's action space.
	ID int
	// Base and Slope define the service-time model.
	Base, Slope time.Duration
	// Affinity[t] adds a penalty for type-t requests (nil disables).
	Affinity []time.Duration

	inflight atomic.Int64
	served   atomic.Int64
	srv      *daemon.Server
}

// StartBackend launches a backend on an ephemeral localhost port.
func StartBackend(id int, base, slope time.Duration) (*Backend, error) {
	if base <= 0 || slope < 0 {
		return nil, fmt.Errorf("netlb: backend %d timing base=%v slope=%v", id, base, slope)
	}
	b := &Backend{ID: id, Base: base, Slope: slope}
	mux := http.NewServeMux()
	mux.HandleFunc("/", b.handle)
	srv, err := daemon.Serve("127.0.0.1:0", mux)
	if err != nil {
		return nil, fmt.Errorf("netlb: backend %d listen: %w", id, err)
	}
	b.srv = srv
	return b, nil
}

func (b *Backend) handle(w http.ResponseWriter, r *http.Request) {
	n := b.inflight.Add(1)
	defer b.inflight.Add(-1)
	delay := b.Base + time.Duration(n-1)*b.Slope
	if len(b.Affinity) > 0 {
		if t := TypeFromPath(r.URL.Path, len(b.Affinity)); t >= 0 {
			delay += b.Affinity[t]
		}
	}
	time.Sleep(delay)
	b.served.Add(1)
	w.Header().Set("X-Backend", fmt.Sprint(b.ID))
	fmt.Fprintf(w, "backend %d served %s after %v\n", b.ID, r.URL.Path, delay)
}

// TypeFromPath extracts a request type from paths of the form
// "/type/<t>/..." (the convention the typed load generator uses). It
// returns -1 when the path carries no type or the type is out of range.
func TypeFromPath(path string, numTypes int) int {
	const prefix = "/type/"
	if numTypes <= 0 || len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return -1
	}
	rest := path[len(prefix):]
	t := 0
	i := 0
	for ; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		t = t*10 + int(rest[i]-'0')
		if t >= numTypes {
			return -1
		}
	}
	if i == 0 {
		return -1
	}
	return t
}

// Addr returns the backend's host:port.
func (b *Backend) Addr() string { return b.srv.Addr() }

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.srv.URL() }

// Inflight returns the current number of in-flight requests.
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// Served returns the total requests completed.
func (b *Backend) Served() int64 { return b.served.Load() }

// Close shuts the backend down.
func (b *Backend) Close() error { return b.srv.Close() }
