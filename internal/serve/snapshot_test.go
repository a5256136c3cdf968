package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/rrset"
)

// snapshotMaxTheta caps every sample the restart tests draw, so that a
// build stays cheap under the race detector.
const snapshotMaxTheta = 2048

// snapshotRequest is a request whose snapshot holds ten ads of whole stream
// blocks; the seed picks the generated graph.
func snapshotRequest(seed uint64) AllocateRequest {
	return AllocateRequest{
		InstanceParams: InstanceParams{Dataset: "flixster", Seed: seed, Scale: 0.01},
		Opts:           TIRMParams{MinTheta: 512, MaxTheta: snapshotMaxTheta},
	}
}

// restartServer is a server over dir whose log lines are kept, with the
// *Server beside its listener for tests that look inside the cache.
type restartServer struct {
	*Server
	url  string
	mu   sync.Mutex
	logs []string
}

func newRestartServer(t *testing.T, dir string) *restartServer {
	t.Helper()
	leakcheck.Check(t)
	rs := &restartServer{}
	rs.Server = New(Options{SnapshotDir: dir, MaxTheta: snapshotMaxTheta, Logf: func(format string, args ...any) {
		rs.mu.Lock()
		rs.logs = append(rs.logs, fmt.Sprintf(format, args...))
		rs.mu.Unlock()
	}})
	ts := httptest.NewServer(rs.Handler())
	t.Cleanup(func() {
		ts.Close()
		rs.Close()
	})
	rs.url = ts.URL
	return rs
}

// logged reports whether some log line contains every one of parts.
func (rs *restartServer) logged(parts ...string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, line := range rs.logs {
		all := true
		for _, p := range parts {
			all = all && strings.Contains(line, p)
		}
		if all {
			return true
		}
	}
	return false
}

// allocate posts req and fails the test unless it is answered.
func (rs *restartServer) allocate(t *testing.T, req AllocateRequest) AllocateResponse {
	t.Helper()
	var resp AllocateResponse
	if code := postJSON(t, rs.url+"/allocate", req, &resp); code != http.StatusOK {
		t.Fatalf("allocate returned %d", code)
	}
	return resp
}

// allocationBytes renders the part of a response the allocation decides,
// leaving out how the index was obtained, what that cost, the index's
// footprint, and the heap counters around the run.
func allocationBytes(t *testing.T, r AllocateResponse) []byte {
	t.Helper()
	r.ColdBuild, r.FromSnapshot, r.BuildSeconds, r.AllocSeconds = false, false, 0, 0
	r.SetsSampled, r.SetsReused, r.AllocObjects, r.AllocBytes = 0, 0, 0, 0
	r.IndexMemBytes = 0 // a fresh build holds the presample's pilot widths, a load only the request's
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// snapshotFile returns the path of req's snapshot under dir and its bytes.
func snapshotFile(t *testing.T, rs *restartServer, req AllocateRequest) (string, []byte) {
	t.Helper()
	path := rs.snapshotPath(req.Key())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestSnapshotRestartOverlapsGeneration: a restart whose first request
// needs the index reads the snapshot while the instance generates — the
// entry holds the read until the index build binds it — and answers byte
// for byte what the cold build answered, from the snapshot, without
// sampling.
func TestSnapshotRestartOverlapsGeneration(t *testing.T) {
	dir := t.TempDir()
	req := snapshotRequest(1)
	cold := newRestartServer(t, dir).allocate(t, req)
	if !cold.ColdBuild || cold.FromSnapshot {
		t.Fatalf("first build: coldBuild=%v fromSnapshot=%v", cold.ColdBuild, cold.FromSnapshot)
	}

	rs := newRestartServer(t, dir)
	e, created, _, err := rs.entryFor(req.InstanceParams, needIndex)
	if err != nil || !created {
		t.Fatalf("entryFor: created=%v err=%v", created, err)
	}
	if e.read == nil {
		t.Fatal("a new entry that needs the index started no snapshot read beside generation")
	}
	restarted := rs.allocate(t, req)
	if _, cold, _, err := rs.indexFor(e); cold || err != nil { // joins the finished build
		t.Fatalf("indexFor after the allocation: cold=%v err=%v", cold, err)
	}
	if e.read != nil {
		t.Error("the index build left the read on the entry")
	}
	if !restarted.ColdBuild || !restarted.FromSnapshot || restarted.SetsSampled != 0 {
		t.Fatalf("restart: coldBuild=%v fromSnapshot=%v setsSampled=%d, want a snapshot load that samples nothing",
			restarted.ColdBuild, restarted.FromSnapshot, restarted.SetsSampled)
	}
	if got, want := allocationBytes(t, restarted), allocationBytes(t, cold); !bytes.Equal(got, want) {
		t.Fatalf("restart answered\n%s\nthe cold build\n%s", got, want)
	}
}

// TestSnapshotVersion5IsRebuilt: a file stamped version 5 is refused by
// the read with the version error, and a restart on it answers from a
// fresh build — the same allocation — and rewrites the file as version 8.
func TestSnapshotVersion5IsRebuilt(t *testing.T) {
	dir := t.TempDir()
	req := snapshotRequest(1)
	first := newRestartServer(t, dir)
	cold := first.allocate(t, req)
	path, raw := snapshotFile(t, first, req)
	binary.LittleEndian.PutUint32(raw[4:], 5)
	if _, err := core.ReadIndexSnapshot(bytes.NewReader(raw), rrset.StreamPartition{}); err == nil ||
		!strings.Contains(err.Error(), "unsupported index snapshot version 5") {
		t.Fatalf("reading a version-5 file: %v, want the version error", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rs := newRestartServer(t, dir)
	got := rs.allocate(t, req)
	if !got.ColdBuild || got.FromSnapshot {
		t.Fatalf("restart on a version-5 file: coldBuild=%v fromSnapshot=%v, want a fresh build", got.ColdBuild, got.FromSnapshot)
	}
	if !rs.logged("unusable", "version 5", "rebuilding") {
		t.Error("the refused file was not logged as unusable")
	}
	if !bytes.Equal(allocationBytes(t, got), allocationBytes(t, cold)) {
		t.Fatal("the rebuild answered another allocation")
	}
	if _, raw := snapshotFile(t, rs, req); binary.LittleEndian.Uint32(raw[4:]) != 8 {
		t.Fatalf("the rebuild left a version-%d file", binary.LittleEndian.Uint32(raw[4:]))
	}
	again := newRestartServer(t, dir).allocate(t, req)
	if !again.FromSnapshot {
		t.Fatal("the rewritten file did not load")
	}
}

// TestSnapshotOfAnotherInstanceIsRebuilt: a snapshot file that holds
// another instance's sample is read, refused at bind on its fingerprint,
// and replaced by a fresh build of the requested instance.
func TestSnapshotOfAnotherInstanceIsRebuilt(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	req := snapshotRequest(1)
	want := newRestartServer(t, dir).allocate(t, req)
	wrong := snapshotRequest(2)
	src := newRestartServer(t, other)
	src.allocate(t, wrong)
	path, _ := snapshotFile(t, newRestartServer(t, dir), req)
	_, raw := snapshotFile(t, src, wrong)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rs := newRestartServer(t, dir)
	got := rs.allocate(t, req)
	if !got.ColdBuild || got.FromSnapshot {
		t.Fatalf("restart on another instance's file: coldBuild=%v fromSnapshot=%v, want a fresh build", got.ColdBuild, got.FromSnapshot)
	}
	if !rs.logged("unusable", "fingerprint", "rebuilding") {
		t.Error("the other instance's file was not refused on its fingerprint")
	}
	if !bytes.Equal(allocationBytes(t, got), allocationBytes(t, want)) {
		t.Fatal("the rebuild answered another allocation than a cold build")
	}
	if again := newRestartServer(t, dir).allocate(t, req); !again.FromSnapshot {
		t.Fatal("the rebuild did not replace the file")
	}
}

// TestEvaluateStartsNoSnapshotRead: /evaluate needs only the instance, so
// the entry it creates starts no snapshot read even with a file on disk;
// the first allocation then loads the file in sequence.
func TestEvaluateStartsNoSnapshotRead(t *testing.T) {
	dir := t.TempDir()
	req := snapshotRequest(1)
	cold := newRestartServer(t, dir).allocate(t, req)

	rs := newRestartServer(t, dir)
	ev := EvaluateRequest{InstanceParams: req.InstanceParams, Seeds: cold.Seeds, Runs: 20, EvalSeed: 3}
	if code := postJSON(t, rs.url+"/evaluate", ev, nil); code != http.StatusOK {
		t.Fatalf("evaluate returned %d", code)
	}
	rs.mu.Lock()
	n := len(rs.entries)
	rs.mu.Unlock()
	e, created, _, err := rs.entryFor(req.InstanceParams, needIndex)
	if err != nil || created || n != 1 {
		t.Fatalf("evaluate left %d entries; entryFor created=%v err=%v", n, created, err)
	}
	if e.read != nil {
		t.Fatal("/evaluate started a snapshot read")
	}
	if got := rs.allocate(t, req); !got.FromSnapshot || !bytes.Equal(allocationBytes(t, got), allocationBytes(t, cold)) {
		t.Fatalf("allocation after /evaluate: fromSnapshot=%v, or another allocation", got.FromSnapshot)
	}
}

// TestCloseWaitsForSnapshotRead: Close returns only once a snapshot read
// in flight has finished, so no goroutine outlives the server (the
// leakcheck under newRestartServer).
func TestCloseWaitsForSnapshotRead(t *testing.T) {
	dir := t.TempDir()
	req := snapshotRequest(1)
	newRestartServer(t, dir).allocate(t, req)

	rs := newRestartServer(t, dir)
	rd := rs.startSnapshotRead(req.Key())
	if rd == nil {
		t.Fatal("no read started with a snapshot file on disk")
	}
	rs.Close()
	select {
	case <-rd.done:
	default:
		t.Fatal("Close returned with the snapshot read in flight")
	}
	if rd.err != nil {
		t.Fatalf("read: %v", rd.err)
	}
}
