package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
)

// getStatus GETs url and returns the response code, or -1 when the request
// itself fails (nothing listening).
func getStatus(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestDaemonShell pins the shell both daemons boot through: the profiling
// routes exist only when asked for, the stop hook runs while the listener
// still answers (adshard snapshots there, with coordinators still talking to
// it), the release hook has run by the time the shell returns (adshard
// closes its upgraded connections there), and a requested stop returns nil
// with the listener closed.
func TestDaemonShell(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "ok")
	})
	for _, pprofOn := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + ln.Addr().String()
		ctx, cancel := context.WithCancel(context.Background())
		duringStop := 0
		var released atomic.Bool
		done := make(chan error, 1)
		go func() {
			done <- serveDaemon(ctx, "testd", ln, inner, pprofOn, 0,
				func() { duringStop = getStatus(base + "/healthz") },
				func() { released.Store(true) })
		}()

		if got := getStatus(base + "/healthz"); got != http.StatusOK {
			t.Fatalf("pprof=%v: /healthz through the shell returned %d", pprofOn, got)
		}
		wantPprof := http.StatusNotFound
		if pprofOn {
			wantPprof = http.StatusOK
		}
		for _, route := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
			if got := getStatus(base + route); got != wantPprof {
				t.Errorf("pprof=%v: %s returned %d, want %d", pprofOn, route, got, wantPprof)
			}
		}

		cancel()
		if err := <-done; err != nil {
			t.Errorf("pprof=%v: requested stop returned %v", pprofOn, err)
		}
		if !released.Load() {
			t.Errorf("pprof=%v: the shell returned before its release hook ran", pprofOn)
		}
		if duringStop != http.StatusOK {
			t.Errorf("pprof=%v: the stop hook's own request got %d: it ran after the listener closed", pprofOn, duringStop)
		}
		if got := getStatus(base + "/healthz"); got != -1 {
			t.Errorf("pprof=%v: still answering (%d) after the shell returned", pprofOn, got)
		}
	}
}
