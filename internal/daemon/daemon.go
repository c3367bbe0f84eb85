// Package daemon is the one skeleton every long-running command shares:
// the only HTTP server construction in the module (with the timeouts and
// header cap that bound a slow or hostile client), the atomic checkpoint
// write, a context-bound ticker, the JSON response encoder, and the
// signal-driven main. Each daemon keeps its own drain order; this package
// only owns the pieces they used to copy.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Server limits, applied to every listener the daemons open. They are
// constants, not options: a daemon cannot opt out of the hardening. See
// DESIGN.md §14 for why each value was chosen.
const (
	// ReadHeaderTimeout bounds how long a client may take to send its
	// request headers; a drip-feeding client is disconnected after it.
	ReadHeaderTimeout = 5 * time.Second
	// ReadTimeout bounds one whole request, body included. net/http also
	// cancels the request context when it expires, so it must exceed
	// pprof's default 30 s profile.
	ReadTimeout = 60 * time.Second
	// IdleTimeout closes keep-alive connections idle this long, well above
	// the 2 s default poll and pull intervals so pollers keep their
	// connections.
	IdleTimeout = 60 * time.Second
	// MaxHeaderBytes caps request headers (net/http answers 431 beyond it).
	MaxHeaderBytes = 64 << 10
	// ShutdownGrace bounds a daemon's graceful shutdown (see Stop).
	ShutdownGrace = 15 * time.Second
)

// limits is the server hardening as values, so tests can exercise the
// timeouts at millisecond scale; production code always uses hardened.
type limits struct {
	readHeader, read, idle time.Duration
	maxHeader              int
}

var hardened = limits{ReadHeaderTimeout, ReadTimeout, IdleTimeout, MaxHeaderBytes}

// Server is one bound listener and, once Serve is called, the HTTP server
// on it. A nil *Server is a valid disabled server: every method is a no-op
// and Addr is empty, so flag-gated call sites need no branching.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Listen binds addr without serving yet, so a daemon can fail on a bad
// address before it spawns anything. An empty addr returns (nil, nil): the
// surface is disabled.
func Listen(addr string) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{ln: ln}, nil
}

// Serve listens on addr and serves h in the background until Shutdown or
// Close. An empty addr returns (nil, nil).
func Serve(addr string, h http.Handler) (*Server, error) {
	s, err := Listen(addr)
	if err != nil {
		return nil, err
	}
	s.Serve(h)
	return s, nil
}

// Serve starts serving h on the bound listener in the background (a no-op
// on a disabled server).
func (s *Server) Serve(h http.Handler) { s.serve(h, hardened) }

func (s *Server) serve(h http.Handler, l limits) {
	if s == nil {
		return
	}
	s.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: l.readHeader,
		ReadTimeout:       l.read,
		IdleTimeout:       l.idle,
		MaxHeaderBytes:    l.maxHeader,
	}
	go func() { _ = s.srv.Serve(s.ln) }()
}

// Addr returns the bound host:port ("" for a disabled server).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops accepting connections and waits for in-flight requests
// until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	switch {
	case s == nil:
		return nil
	case s.srv == nil:
		return s.ln.Close()
	}
	return s.srv.Shutdown(ctx)
}

// Close stops the server immediately, dropping open connections.
func (s *Server) Close() error {
	switch {
	case s == nil:
		return nil
	case s.srv == nil:
		return s.ln.Close()
	}
	return s.srv.Close()
}

// WriteJSON renders v as the project's one JSON response form: one-space
// indent and a trailing newline. Every daemon's JSON surface goes through
// it, which is what makes fleet-equals-monolithic /estimates byte-identical
// by construction.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// WriteFileAtomic replaces path with data: it writes a temp file in the
// same directory, fsyncs it, then renames it over path. A crash mid-write
// leaves the previous file intact, and a failed write leaves no temp file.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// Every calls tick once per interval until ctx is done. It runs on the
// caller's goroutine; the first call comes one interval in.
func Every(ctx context.Context, interval time.Duration, tick func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			tick()
		case <-ctx.Done():
			return
		}
	}
}

// Stop calls shutdown with a context that expires after ShutdownGrace.
func Stop(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	return shutdown(ctx)
}

// RunFunc is a daemon command's body. ctx is cancelled on SIGINT or
// SIGTERM. When ready is non-nil the command sends its base URL (or bound
// address) on it after startup: the hook tests use to drive a full
// lifecycle in-process.
type RunFunc func(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error

// Main runs a daemon command with the process arguments and stdout, prints
// a returned error as "name: err" on stderr, and exits 1 on error.
func Main(name string, run RunFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, nil)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}
