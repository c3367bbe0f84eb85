// Package fixture is loaded under the approved import path
// repro/internal/daemon: building the hardened server is the skeleton's
// job, so nothing here is flagged.
package fixture

import (
	"net"
	"net/http"
	"time"
)

func serve(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv
}

func helper(ln net.Listener, h http.Handler) error {
	return http.Serve(ln, h)
}
