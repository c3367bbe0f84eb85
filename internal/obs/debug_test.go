package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestDebugServerEndpoints(t *testing.T) {
	s := httptest.NewServer(DebugMux())
	defer s.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/vars"} {
		resp, err := http.Get(s.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", path)
		}
	}
	// Anything off the debug surface 404s.
	resp, err := http.Get(s.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/metrics on debug server = %d, want 404", resp.StatusCode)
	}
}
