package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"repro/internal/core"
)

// Retention: an index the server has let go of — by LRU eviction or by
// Close — must be garbage at the very next collection, not one cycle later
// and not "once every connection goroutine has unwound". At paper scale an
// index is hundreds of MB, and a restart or a replacement build that starts
// while the old one is still pinned pays for both. Each test holds only a
// weak pointer, turns the background collector off so that the one GC it
// forces is the only cycle, and does not sleep.

// weakIndex returns a weak pointer to the one built index in srv's cache,
// leaving no strong reference behind on the caller's stack.
func weakIndex(t *testing.T, srv *Server) weak.Pointer[core.Index] {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, e := range srv.entries {
		if e.indexBuilt() {
			return weak.Make(e.idx)
		}
	}
	t.Fatal("no index in the cache")
	return weak.Pointer[core.Index]{}
}

// TestEvictedIndexIsCollectable: the handler is called in-process, so the
// cache entry is the index's only holder. A workspace pool embedded in the
// entry by value pinned it through the runtime's sync.Pool registry (an
// interior pointer, kept for one more cycle after the pool's last use).
func TestEvictedIndexIsCollectable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := New(Options{MaxEntries: 1, Logf: t.Logf})
	h := srv.Handler()
	allocate := func(seed uint64) {
		req := fig1Request()
		req.Seed = seed
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("allocate seed %d returned %d: %s", seed, rec.Code, rec.Body)
		}
	}
	allocate(1)
	allocate(1) // warm: a pooled workspace has been used and parked
	idx := weakIndex(t, srv)
	allocate(2) // a second instance evicts the first
	runtime.GC()
	if idx.Value() != nil {
		t.Fatal("an evicted index survived a GC cycle")
	}
	runtime.KeepAlive(srv)
}

// TestCloseReleasesCache: over real loopback HTTP, with the *Server itself
// still reachable after Close (as it is from a connection goroutine that
// has not finished unwinding, or from an owner that keeps the value
// around), the cache must already be empty.
func TestCloseReleasesCache(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	srv := New(Options{Logf: t.Logf})
	front := httptest.NewServer(srv.Handler())
	if code := postJSON(t, front.URL+"/allocate", fig1Request(), nil); code != http.StatusOK {
		t.Fatalf("allocate returned %d", code)
	}
	idx := weakIndex(t, srv)
	front.Close()
	srv.Close()
	runtime.GC()
	if idx.Value() != nil {
		t.Fatal("a closed server's index survived a GC cycle")
	}
	runtime.KeepAlive(srv)
}
