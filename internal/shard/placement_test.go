// Tests for ad placement: every op naming an ad reaches the slot that owns
// the ad's stream and no other, a shard refuses an ad it does not own, the
// coordinator refuses an owner's reply that leaves ads out, and a cluster
// restarted from its slices serves what the single node serves.

package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// routeLog records, per slot, every op a coordinator sent and the ad
// positions the op named.
type routeLog struct {
	mu   sync.Mutex
	sent [][]routed
}

// routed is one op as routeLog saw it.
type routed struct {
	op  op
	ads []int
}

// adsOf returns the ad positions a request names (nil for an op that names
// none: info, end, the mutations).
func adsOf(req any) []int {
	switch req := req.(type) {
	case *PilotRequest:
		return req.Ads
	case *StartRequest:
		return req.Ads
	case *EnsureRequest:
		return []int{req.Ad}
	case *CommitRequest:
		return []int{req.Ad}
	case *CreditRequest:
		return []int{req.Ad}
	case *GrowRequest:
		return []int{req.Ad}
	case *GainsRequest:
		return []int{req.Ad}
	}
	return nil
}

// wrap makes cl, slot's client, log every op it is handed.
func (l *routeLog) wrap(slot int, cl Client) Client {
	c := new(intercepted)
	c.wrap(cl, func(ctx context.Context, rc rpcCall) error {
		l.mu.Lock()
		l.sent[slot] = append(l.sent[slot], routed{rc.op, slices.Clone(adsOf(rc.req))})
		l.mu.Unlock()
		return rc.invoke(ctx)
	})
	return c
}

// take returns what was logged since the last take and forgets it.
func (l *routeLog) take() [][]routed {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = make([][]routed, len(out))
	return out
}

// TestPerAdOpsReachOwnerOnly pins the placement rule on the wire. At
// K ∈ {2, 4, 8} every op that names an ad — pilot, start, ensure, commit,
// credit, grow, gains — reaches only the slot stream(j) mod K, so a slot
// that owns none of the campaign's ads sees nothing but info and the
// lockstep mutations; the per-ad op counts equal those at K = 1 for the
// same requests; and after RemoveAd of position 0 and an AddAd the new ad
// routes by its stream id, not its position (at K = 2 and 4 the two
// disagree for it). Verify mode is on, so gains rounds are counted too.
func TestPerAdOpsReachOwnerOnly(t *testing.T) {
	ctx := context.Background()
	roster := randomInstance(xrand.New(1000), 60, 480, 4, 2, 0.01)
	opts := core.TIRMOptions{Eps: 1, MinTheta: 256, MaxTheta: 20000}
	req := core.Request{Opts: opts}
	perAd := []op{opEnsure, opCommit, opCredit, opGrow, opGains}
	// Stream ids by position: the first three roster ads, the third of
	// which shares the second's sample, then, once position 0 is removed and
	// roster ad 3 (a vector of its own) added, streams 1, 1 and 3.
	phases := [][]uint64{{0, 1, 1}, {1, 1, 3}}

	var reference map[op]int
	for _, k := range []int{1, 2, 4, 8} {
		_, shards, err := NewLocalCluster(roster, 3, 7, k, Config{})
		if err != nil {
			t.Fatal(err)
		}
		log := &routeLog{sent: make([][]routed, k)}
		clients := make([]Client, k)
		for slot, s := range shards {
			clients[slot] = log.wrap(slot, LocalClient{S: s})
		}
		coord, err := NewCoordinator(ctx, clients, Config{Roster: roster, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[op]int{}
		for phase, streams := range phases {
			log.take()
			if phase == 0 {
				if err := coord.Warm(ctx, opts); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := coord.RemoveAd(ctx, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := coord.AddAdBase(ctx, 3, opts); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := coord.Allocate(ctx, req); err != nil {
				t.Fatalf("K=%d phase %d: %v", k, phase, err)
			}
			for slot, s := range shards {
				if got := s.Info().Streams; !slices.Equal(got, streams) {
					t.Fatalf("K=%d phase %d: shard %d reports streams %v, want %v", k, phase, slot, got, streams)
				}
			}
			for slot, sent := range log.take() {
				owns := false
				for _, st := range streams {
					owns = owns || int(st%uint64(k)) == slot
				}
				for _, r := range sent {
					for _, j := range r.ads {
						if owner := int(streams[j] % uint64(k)); owner != slot {
							t.Fatalf("K=%d phase %d: %s naming ad %d (stream %d) reached slot %d, its owner is slot %d",
								k, phase, r.op, j, streams[j], slot, owner)
						}
					}
					if !owns && r.op != opInfo && r.op != opAddAd && r.op != opRemoveAd {
						t.Fatalf("K=%d phase %d: slot %d owns no ad and was sent %s", k, phase, slot, r.op)
					}
					if r.ads != nil {
						counts[r.op]++
					}
				}
			}
		}
		if k == 1 {
			reference = counts
			for _, o := range []op{opCommit, opCredit, opGrow, opGains} {
				if counts[o] == 0 {
					t.Fatalf("K=1 sent no %s: the requests no longer exercise every per-ad op (counts %v)", o, counts)
				}
			}
			continue
		}
		for _, o := range perAd {
			if counts[o] != reference[o] {
				t.Errorf("K=%d sent %d %s ops, K=1 sent %d", k, counts[o], o, reference[o])
			}
		}
	}
}

// TestShardRefusesUnownedAd: an op naming an ad another slot owns is an
// error — pilot, start, ensure, and a commit against a run that could not
// have opened the ad — never an empty reply.
func TestShardRefusesUnownedAd(t *testing.T) {
	_, shards, err := NewLocalCluster(testInstance(), 0, 42, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := shards[1] // owns the odd streams, so ad 1 and not ad 0
	epoch := s.Info().Epoch
	if _, err := s.Start(StartRequest{RunID: "run", Epoch: epoch, Ads: []int{1}, Thetas: []int{512}}); err != nil {
		t.Fatalf("start on the owner: %v", err)
	}
	defer s.End("run")
	refusals := []struct {
		name string
		err  error
	}{
		{"pilot", func() error { _, err := s.Pilot(PilotRequest{Epoch: epoch, Ads: []int{1, 0}, Want: 512}); return err }()},
		{"start", func() error {
			_, err := s.Start(StartRequest{RunID: "other", Epoch: epoch, Ads: []int{0}, Thetas: []int{512}})
			return err
		}()},
		{"ensure", func() error { _, err := s.Ensure(EnsureRequest{Epoch: epoch, Ad: 0, Want: 512}); return err }()},
		{"commit", func() error { _, err := s.Commit(CommitRequest{RunID: "run", Ad: 0, Node: 1, Seq: 1}); return err }()},
		{"grow", func() error {
			_, err := s.Grow(GrowRequest{RunID: "run", Ad: 0, FromGlobal: 512, ToGlobal: 768, Seq: 1})
			return err
		}()},
	}
	for _, r := range refusals {
		if r.err == nil {
			t.Errorf("%s naming an unowned ad succeeded", r.name)
		}
	}
	if open := s.Info().OpenRuns; open != 1 {
		t.Errorf("%d runs open after the refused start, want 1", open)
	}
}

// TestShardedClusterRestoresFromSlices: each slice of a warmed K = 4
// cluster, saved and reloaded through core.LoadShardIndexSnapshot and
// NewShardFromIndex, makes a cluster whose next allocation equals the
// single node's and draws no sets; a slice loaded for another slot is
// refused.
func TestShardedClusterRestoresFromSlices(t *testing.T) {
	inst, opts := testInstance(), testOpts()
	const seed, k = 42, 4
	ctx := context.Background()
	req := core.Request{Opts: opts}

	idx, err := core.BuildIndex(inst, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want *core.TIRMResult
	for range 2 { // the second allocation is the warm one
		if want, err = core.AllocateFromIndex(idx, req); err != nil {
			t.Fatal(err)
		}
	}

	coord, shards, err := NewLocalCluster(inst, 0, seed, k, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Warm(ctx, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Allocate(ctx, req); err != nil {
		t.Fatal(err)
	}
	p, err := NewPartitioner(k)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]Client, k)
	for slot, s := range shards {
		var snap bytes.Buffer
		if err := s.Index().WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		other := p.Range((slot + 1) % k)
		if _, err := core.LoadShardIndexSnapshot(inst, other, bytes.NewReader(snap.Bytes())); err == nil {
			t.Fatalf("slice %d loaded as slot %d", slot, other.Shard)
		}
		loaded, err := core.LoadShardIndexSnapshot(inst, p.Range(slot), bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("slice %d: %v", slot, err)
		}
		restored, err := NewShardFromIndex(inst, loaded)
		if err != nil {
			t.Fatal(err)
		}
		clients[slot] = LocalClient{S: restored}
	}
	restarted, err := NewCoordinator(ctx, clients, Config{Roster: inst, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restarted.Allocate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, fmt.Sprintf("restored K=%d", k), inst, req, want, got)
	if got.TotalSetsSampled != 0 {
		t.Errorf("the restored cluster drew %d sets", got.TotalSetsSampled)
	}
}

// TestCoordinatorRefusesShortReplies: an owner whose pilot or start reply
// answers for fewer ads than it was asked about fails the run with a drift
// error instead of an index out of range.
func TestCoordinatorRefusesShortReplies(t *testing.T) {
	ctx := context.Background()
	for _, o := range []op{opPilot, opStart} {
		_, shards, err := NewLocalCluster(testInstance(), 0, 42, 2, Config{})
		if err != nil {
			t.Fatal(err)
		}
		clients := []Client{LocalClient{S: shards[0]}, new(intercepted)}
		clients[1].(*intercepted).wrap(LocalClient{S: shards[1]}, func(ctx context.Context, rc rpcCall) error {
			err := rc.invoke(ctx)
			switch reply := rc.reply.(type) {
			case *PilotReply:
				if o == opPilot {
					reply.Have = reply.Have[:1]
				}
			case *StartReply:
				if o == opStart {
					reply.Cov = reply.Cov[:1]
				}
			}
			return err
		})
		coord, err := NewCoordinator(ctx, clients, Config{Roster: testInstance()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Allocate(ctx, core.Request{Opts: testOpts()}); !errors.Is(err, errDrift) {
			t.Errorf("short %s reply: err = %v, want errDrift", o, err)
		}
	}
}
