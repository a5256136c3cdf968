package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rrset"
	"repro/internal/serve"
	"repro/internal/shard"
)

func discardLog(string, ...any) {}

// system is one running deployment of the program under test: a serve.Server
// behind a real loopback listener and, in coordinator mode, the shard
// daemons it scatters to, each behind its own listener. It is driven only
// through its HTTP surface.
type system struct {
	srv   *serve.Server
	front *httptest.Server
	back  *backends // nil for a single node
}

func (s *system) url() string { return s.front.URL }

// close stops the listeners and waits for in-flight requests to finish.
func (s *system) close() {
	s.front.Close()
	s.srv.Close()
	if s.back != nil {
		s.back.close()
	}
}

func (w workload) serveOptions() serve.Options {
	return serve.Options{MaxScale: 1, MaxTheta: w.maxTheta, Logf: discardLog}
}

// startSingle starts a single-node server. snapDir may be empty (no
// persistence), an empty directory (the first allocation builds and saves),
// or a populated one (the first allocation loads).
func startSingle(w workload, snapDir string) *system {
	opts := w.serveOptions()
	opts.SnapshotDir = snapDir
	srv := serve.New(opts)
	return &system{srv: srv, front: httptest.NewServer(srv.Handler())}
}

// backends are the shard daemons of one cluster, each serving
// shard.Shard.Handler() on its own loopback listener.
type backends struct {
	shards  []*shard.Shard
	servers []*httptest.Server
	addrs   []string // host:port, slot order
}

func (b *backends) close() {
	for _, s := range b.servers {
		s.Close()
	}
}

func shardSnapshotPath(dir string, slot int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.adix", slot))
}

// openShards builds the k shards of the instance p names. With a populated
// snapDir each restores its slice instead of starting empty, as cmd/adshard
// does on restart.
func openShards(p serve.InstanceParams, k int, snapDir string) ([]*shard.Shard, error) {
	roster, err := serve.BuildDataset(p)
	if err != nil {
		return nil, err
	}
	part, err := shard.NewPartitioner(k)
	if err != nil {
		return nil, err
	}
	shards := make([]*shard.Shard, k)
	for slot := range shards {
		sh, err := openShard(roster, p, part.Range(slot), slot, snapDir)
		if err != nil {
			return nil, err
		}
		sh.Dataset = shard.DatasetParams{Name: p.Dataset, Seed: p.Seed, Scale: p.Scale, NumAds: p.NumAds}
		shards[slot] = sh
	}
	return shards, nil
}

func openShard(roster *core.Instance, p serve.InstanceParams, part rrset.StreamPartition, slot int, snapDir string) (*shard.Shard, error) {
	if snapDir != "" {
		if f, err := os.Open(shardSnapshotPath(snapDir, slot)); err == nil {
			defer f.Close()
			idx, err := core.LoadShardIndexSnapshot(roster, part, f)
			if err != nil {
				return nil, fmt.Errorf("shard %d snapshot: %w", slot, err)
			}
			return shard.NewShardFromIndex(roster, idx)
		}
	}
	return shard.NewShard(roster, 0, p.Seed, part)
}

// startBackends boots k shard daemons, each behind its own loopback listener.
// wrap, when non-nil, decorates each shard's handler (the traced run's
// middleware).
func startBackends(p serve.InstanceParams, k int, snapDir string, wrap func(slot int, h http.Handler) http.Handler) (*backends, error) {
	shards, err := openShards(p, k, snapDir)
	if err != nil {
		return nil, err
	}
	b := &backends{shards: shards}
	for slot, sh := range shards {
		h := sh.Handler()
		if wrap != nil {
			h = wrap(slot, h)
		}
		srv := httptest.NewServer(h)
		b.servers = append(b.servers, srv)
		b.addrs = append(b.addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	return b, nil
}

// connectFront starts a coordinator-mode server over the shard daemons at
// addrs — the ReplicaSet(Retry(Instrument(HTTP))) client stack cmd/adserver
// builds, with one replica per range.
func connectFront(ctx context.Context, w workload, addrs []string) (*serve.Server, error) {
	opts := w.serveOptions()
	opts.Shards = addrs
	srv := serve.New(opts)
	if err := srv.ConnectShards(ctx); err != nil {
		return nil, fmt.Errorf("connect shards: %w", err)
	}
	return srv, nil
}

// startSharded boots w.shards shard daemons and a coordinator-mode server in
// front of them.
func startSharded(ctx context.Context, w workload, p serve.InstanceParams, snapDir string) (*system, error) {
	back, err := startBackends(p, w.shards, snapDir, nil)
	if err != nil {
		return nil, err
	}
	srv, err := connectFront(ctx, w, back.addrs)
	if err != nil {
		back.close()
		return nil, err
	}
	return &system{srv: srv, front: httptest.NewServer(srv.Handler()), back: back}, nil
}

// saveShardSnapshots persists every shard's slice, as cmd/adshard does when
// it drains.
func (b *backends) saveSnapshots(dir string) error {
	for slot, sh := range b.shards {
		f, err := os.Create(shardSnapshotPath(dir, slot))
		if err != nil {
			return err
		}
		err = sh.Index().WriteSnapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("shard %d snapshot: %w", slot, err)
		}
	}
	return nil
}

// snapshotBytes sums the index snapshots on disk under dir.
func snapshotBytes(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.adix"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// client is one connection to a system's HTTP surface. Every request runs
// under the workload's context and the client's own timeout, so a wedged
// handler fails the run instead of hanging it.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, timeout time.Duration) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: timeout}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. The latency is what a
// caller observes: from just before the request is written until the last
// byte of the body has arrived; decoding it is the caller's business and is
// not timed.
func (c *client) do(ctx context.Context, method, path string, body any) (status int, reply []byte, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), fmt.Errorf("%s %s: %w", method, path, err)
	}
	reply, err = io.ReadAll(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, lat, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return resp.StatusCode, reply, lat, nil
}

// allocate posts one allocation and decodes a 200 reply.
func (c *client) allocate(ctx context.Context, req serve.AllocateRequest) (*serve.AllocateResponse, int, time.Duration, error) {
	status, reply, lat, err := c.do(ctx, http.MethodPost, "/allocate", req)
	if err != nil {
		return nil, status, lat, err
	}
	if status != http.StatusOK {
		return nil, status, lat, fmt.Errorf("POST /allocate: HTTP %d: %s", status, bytes.TrimSpace(reply))
	}
	var out serve.AllocateResponse
	if err := json.Unmarshal(reply, &out); err != nil {
		return nil, status, lat, fmt.Errorf("POST /allocate: decoding reply: %w", err)
	}
	return &out, status, lat, nil
}

// call sends a request that must answer 200 and decodes the reply into out
// (ignored when nil).
func (c *client) call(ctx context.Context, method, path string, body, out any) (time.Duration, error) {
	status, reply, lat, err := c.do(ctx, method, path, body)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, bytes.TrimSpace(reply))
	}
	if out != nil {
		if err := json.Unmarshal(reply, out); err != nil {
			return lat, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return lat, nil
}

func removeAdPath(p serve.InstanceParams, name string) string {
	return fmt.Sprintf("/ads/%s?dataset=%s&seed=%d&scale=%g", name, p.Dataset, p.Seed, p.Scale)
}
