// Package fixture exercises the rawserver analyzer: every way of standing
// up a net/http server outside the daemon skeleton is flagged; handlers,
// muxes, clients and suppressed lines are not.
package fixture

import (
	"net"
	"net/http"
)

func literal(h http.Handler) *http.Server {
	return &http.Server{Handler: h} // want "http.Server built outside"
}

func value() http.Server {
	return http.Server{} // want "http.Server built outside"
}

// viaNew has no literal, but starting it is flagged all the same.
func viaNew(ln net.Listener, h http.Handler) error {
	srv := new(http.Server)
	srv.Handler = h
	return srv.Serve(ln) // want "http.Server.{2}Serve outside"
}

func viaVar() error {
	var srv http.Server
	return srv.ListenAndServe() // want "http.Server.{2}ListenAndServe outside"
}

func listenAndServe(h http.Handler) error {
	return http.ListenAndServe("127.0.0.1:0", h) // want "http.ListenAndServe runs a server with no timeouts"
}

func serve(ln net.Listener, h http.Handler) error {
	return http.Serve(ln, h) // want "http.Serve runs a server with no timeouts"
}

func funcValue() func(net.Listener, http.Handler) error {
	return http.Serve // want "http.Serve runs a server with no timeouts"
}

func suppressed(h http.Handler) *http.Server {
	//lint:ignore rawserver fixture demonstrates suppression
	return &http.Server{Handler: h}
}

// clean builds handlers and a client, none of which serve anything.
func clean() (*http.ServeMux, *http.Client) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusTeapot)
	})
	return mux, &http.Client{}
}
