// The daemon shell: what cmd/adserver and cmd/adshard do around their
// handler — listen, mount the opt-in profiling routes, wait for a signal,
// shut down gracefully — written once.

package serve

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// RunDaemon serves h on addr until SIGINT, SIGTERM or the end of ctx, then
// shuts down gracefully: stop (when non-nil) runs first, while the listener
// still answers — adshard drains and writes its snapshot there — and
// in-flight requests then get ten seconds to finish. release (when non-nil)
// runs as that shutdown begins (http.Server.RegisterOnShutdown), for the
// connections h hijacked, which Shutdown neither tracks nor waits for —
// adshard closes its upgraded ones there — and RunDaemon waits for it
// within the same ten seconds. name prefixes the log lines. pprofOn mounts
// net/http/pprof under /debug/pprof/ beside h: an explicit opt-in, because
// profiles expose process internals and an open endpoint must not serve
// them by accident. writeTimeout bounds one response
// (http.Server.WriteTimeout; 0 = unbounded), and so one framed reply. A
// listener failure is returned; a clean shutdown returns nil.
func RunDaemon(ctx context.Context, name, addr string, h http.Handler, pprofOn bool, writeTimeout time.Duration, stop, release func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveDaemon(ctx, name, ln, h, pprofOn, writeTimeout, stop, release)
}

// serveDaemon is RunDaemon on a listener the caller opened.
func serveDaemon(ctx context.Context, name string, ln net.Listener, h http.Handler, pprofOn bool, writeTimeout time.Duration, stop, release func()) error {
	if pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		h = mux
		log.Printf("%s: pprof enabled at /debug/pprof/", name)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, WriteTimeout: writeTimeout}
	released := make(chan struct{})
	if release == nil {
		close(released)
	} else {
		hs.RegisterOnShutdown(func() {
			defer close(released)
			release()
		})
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("%s: listening on %s", name, ln.Addr())
		errc <- hs.Serve(ln)
	}()

	ctx, cancel := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: shutting down", name)
	if stop != nil {
		stop()
	}
	sctx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	select {
	case <-released:
	case <-sctx.Done():
		return sctx.Err()
	}
	return nil
}
