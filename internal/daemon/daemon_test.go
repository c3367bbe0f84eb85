package daemon

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
}

// serveTest binds a loopback server with the given limits and closes it at
// the end of the test.
func serveTest(t *testing.T, l limits) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.serve(okHandler(), l)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// dripHeaders opens a raw connection and starts sending a request's
// headers one byte at a time, never finishing them. The returned channel
// closes once the server has closed the connection.
func dripHeaders(t *testing.T, addr string) <-chan struct{} {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := conn.Write([]byte("X")); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	closed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, conn)
		close(closed)
	}()
	return closed
}

func TestServeDisabled(t *testing.T) {
	s, err := Serve("", okHandler())
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatal("empty addr should disable the server")
	}
	// The disabled server is inert, not a crash.
	if s.Addr() != "" {
		t.Error("disabled server has an address")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

func TestServeHardenedLimits(t *testing.T) {
	s, err := Serve("127.0.0.1:0", okHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.srv.ReadHeaderTimeout != ReadHeaderTimeout || s.srv.ReadTimeout != ReadTimeout ||
		s.srv.IdleTimeout != IdleTimeout || s.srv.MaxHeaderBytes != MaxHeaderBytes {
		t.Errorf("server limits = %v/%v/%v/%d, want the package constants",
			s.srv.ReadHeaderTimeout, s.srv.ReadTimeout, s.srv.IdleTimeout, s.srv.MaxHeaderBytes)
	}
	if s.srv.WriteTimeout != 0 {
		t.Error("WriteTimeout must stay unset: pprof profiles stream for 30 s")
	}
	resp, err := http.Get(s.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Errorf("GET / = %d %q", resp.StatusCode, body)
	}
}

// TestSlowHeadersDisconnected: a client drip-feeding its headers is cut
// off once ReadHeaderTimeout passes, not held open forever.
func TestSlowHeadersDisconnected(t *testing.T) {
	const readHeader = 200 * time.Millisecond
	s := serveTest(t, limits{readHeader: readHeader, read: time.Minute, idle: time.Minute, maxHeader: MaxHeaderBytes})
	start := time.Now()
	closed := dripHeaders(t, s.Addr())
	select {
	case <-closed:
	case <-time.After(readHeader + 3*time.Second):
		t.Fatalf("drip-feeding client still connected after %v", time.Since(start))
	}
	if el := time.Since(start); el < readHeader {
		t.Errorf("disconnected after %v, before the %v header timeout", el, readHeader)
	}
}

// TestOversizedHeader431: headers past MaxHeaderBytes (net/http allows 4
// KiB of slack on top) are refused with 431.
func TestOversizedHeader431(t *testing.T) {
	s, err := Serve("127.0.0.1:0", okHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "GET / HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", MaxHeaderBytes+8<<10) + "\r\n\r\n"
	go func() { _, _ = io.WriteString(conn, req) }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("oversized header = %d, want 431", resp.StatusCode)
	}
}

// TestSlowClientDoesNotBlockOthers: while one connection hangs mid-headers,
// a normal request on a second connection is served promptly.
func TestSlowClientDoesNotBlockOthers(t *testing.T) {
	s, err := Serve("127.0.0.1:0", okHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	closed := dripHeaders(t, s.Addr())
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(s.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("second connection = %d", resp.StatusCode)
	}
	select {
	case <-closed:
		t.Error("slow client was dropped before ReadHeaderTimeout")
	default:
	}
}

func TestListenBadAddr(t *testing.T) {
	if _, err := Listen("127.0.0.1:99999"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestShutdownBeforeServe(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The listener is released, so the port can be bound again.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after Shutdown: %v", err)
	}
	ln.Close()
}

func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, map[string]any{"b": 1.5, "a": []int{1}})
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	want := "{\n \"a\": [\n  1\n ],\n \"b\": 1.5\n}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Errorf("file = %q, want %q", got, data)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target (no temp files)", len(entries))
	}
}

func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteFileAtomic(path, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Renaming a file over a directory fails after the temp file is
	// written: the target must survive and the temp file must be gone.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("bad")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if got, _ := os.ReadFile(path); string(got) != "good" {
		t.Errorf("previous file = %q", got)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Errorf("directory holds %d entries, want 2 (a temp file leaked)", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func TestEveryStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ticks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		Every(ctx, time.Millisecond, func() {
			if ticks.Add(1) == 3 {
				cancel()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Every did not return after cancel")
	}
	if n := ticks.Load(); n < 3 {
		t.Errorf("ticks = %d, want at least 3", n)
	}
}

func TestStopPassesDeadline(t *testing.T) {
	err := Stop(func(ctx context.Context) error {
		dl, ok := ctx.Deadline()
		if !ok || time.Until(dl) > ShutdownGrace {
			t.Errorf("deadline = %v (set %v)", dl, ok)
		}
		return io.EOF
	})
	if err != io.EOF {
		t.Errorf("Stop returned %v, want the shutdown error", err)
	}
}
