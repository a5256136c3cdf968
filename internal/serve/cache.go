// The single-node engine: a cache of instance+index entries keyed by
// (dataset, seed, scale, ads). Everything here is what coordinator mode
// does not have — entry creation and LRU eviction, build coalescing,
// snapshot load/save, and the pin that keeps eviction off an entry while
// a campaign mutation lands. Request paths reach it only through resolve
// (campaign.go).

package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rrset"
)

// entry is one cached instance plus its lazily built index — the
// single-node engine of the campaign it embeds. The two are built in
// separate phases so /evaluate — which only needs the instance — never pays
// for (or triggers) index presampling or a snapshot read. instReady is
// closed once inst is set; idxReady is created by the first index builder
// and closed when idx/idxErr are final, coalescing concurrent builders.
type entry struct {
	campaign
	instReady chan struct{}
	inst      *core.Instance
	// read is the snapshot read entryFor started beside the instance's
	// generation, nil when it started none; the index builder binds it and
	// clears it.
	read *snapshotRead

	idxMu    sync.Mutex
	idxReady chan struct{} // nil until an index build starts
	idx      *core.Index
	idxErr   error
	fromDisk bool
	buildSec float64

	lastUsed atomic.Int64 // unix nanos, drives LRU eviction
	hits     atomic.Int64

	// pool recycles AllocateFromIndex workspaces across requests against
	// this entry's index; attaching it here (rather than sharing one pool
	// process-wide) keeps the recycled array shapes matched to the entry's
	// node count and θ, and gives /stats a per-campaign hit/miss signal. A
	// pointer, never a value: the runtime lists every sync.Pool it has seen
	// a Put on and keeps the listing for one GC cycle past the pool's last
	// use, and a pool inside the entry would be listed by interior pointer
	// — holding the whole evicted entry, index and all, for that cycle.
	pool *core.WorkspacePool

	// mutating counts mutation handlers currently between entry resolution
	// and completion, so eviction never races the first mutation out of
	// existence.
	mutating atomic.Int32
}

// EpochInst implements engine: the index's current epoch once one is built
// (mutations swap fresh instances in), otherwise epoch 0 with the
// as-generated base instance. Callers must have waited on instReady.
func (e *entry) EpochInst() (uint64, *core.Instance) {
	if e.indexBuilt() {
		return e.idx.EpochInst()
	}
	return 0, e.inst
}

// Allocate implements engine on the entry's index and workspace pool; a
// cancelled ctx stops the run before its next round.
func (e *entry) Allocate(ctx context.Context, req core.Request) (*core.TIRMResult, error) {
	req.Pool = e.pool
	return core.AllocateFromIndexContext(ctx, e.idx, req)
}

// AddAd implements engine: only the new ad's stream is sampled.
func (e *entry) AddAd(_ context.Context, _ core.AdSpec, ad core.Ad, opts core.TIRMOptions) (int, error) {
	return e.idx.AddAd(ad, opts)
}

// RemoveAd implements engine.
func (e *entry) RemoveAd(_ context.Context, pos int) error { return e.idx.RemoveAd(pos) }

// MemBytes implements engine.
func (e *entry) MemBytes() int64 { return e.idx.MemBytes() }

// upstream implements engine: a local index fails only on the request.
func (e *entry) upstream() bool { return false }

// hasLifecycleState reports whether the entry carries campaign state that
// exists nowhere else — a mutated ad set (epoch past the build) or a
// non-empty spend ledger. Such entries are exempt from LRU eviction:
// rebuilding from the generator (or the as-built snapshot) would silently
// resurrect the pre-mutation campaign with full budgets.
func (e *entry) hasLifecycleState() bool {
	e.spendMu.Lock()
	spent := len(e.spent) > 0
	e.spendMu.Unlock()
	if spent {
		return true
	}
	return e.indexBuilt() && e.idx.Epoch() > 1
}

// buildInFlight reports whether the entry's instance generation or index
// build is currently running (non-blocking).
func (e *entry) buildInFlight() bool {
	select {
	case <-e.instReady:
	default:
		return true
	}
	e.idxMu.Lock()
	ch := e.idxReady
	e.idxMu.Unlock()
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return false
	default:
		return true
	}
}

// indexBuilt reports whether the entry's index finished building
// successfully (non-blocking).
func (e *entry) indexBuilt() bool {
	e.idxMu.Lock()
	ch := e.idxReady
	e.idxMu.Unlock()
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return e.idxErr == nil
	default:
		return false
	}
}

// snapshotRead is a core.ReadIndexSnapshot running on a goroutine of its
// own; done closes when snap and err are final.
type snapshotRead struct {
	done chan struct{}
	snap *core.IndexSnapshot
	err  error
}

// entryFor returns the cached entry for p, generating the instance if
// needed (the index is built separately by indexFor, so instance-only
// consumers like /evaluate never trigger sampling). When this call creates
// the entry for a request that needs the index (n is needIndex or
// needMutation) and a snapshot file exists, the file is read while the
// instance generates — the read needs only the file — and indexFor's build
// binds the result. created reports whether this call made the entry;
// waited reports whether it blocked on another caller's in-flight instance
// generation.
func (s *Server) entryFor(p InstanceParams, n need) (_ *entry, created, waited bool, _ error) {
	d, err := p.dataset()
	if err != nil {
		return nil, false, false, err
	}
	if p.Scale > s.opts.MaxScale {
		return nil, false, false, fmt.Errorf("scale %g exceeds server limit %g", p.Scale, s.opts.MaxScale)
	}
	if p.NumAds > s.opts.MaxAds {
		return nil, false, false, fmt.Errorf("numAds %d exceeds server limit %d", p.NumAds, s.opts.MaxAds)
	}
	key := p.Key()
	now := time.Now().UnixNano()

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		e.lastUsed.Store(now)
		select {
		case <-e.instReady:
		default:
			waited = true
			<-e.instReady
		}
		return e, false, waited, nil
	}
	e := &entry{
		campaign:  campaign{key: key, params: p},
		instReady: make(chan struct{}),
		pool:      &core.WorkspacePool{},
	}
	e.lastUsed.Store(now)
	s.entries[key] = e
	s.evictLocked(e)
	s.mu.Unlock()

	if n == needIndex || n == needMutation {
		e.read = s.startSnapshotRead(key)
	}
	e.inst = p.build(d)
	close(e.instReady)
	return e, true, false, nil
}

// startSnapshotRead starts reading key's snapshot file on its own goroutine,
// which Close waits for; nil when there is no file to read.
func (s *Server) startSnapshotRead(key string) *snapshotRead {
	path := s.snapshotPath(key)
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	rd := &snapshotRead{done: make(chan struct{})}
	s.reads.Add(1)
	go func() {
		defer s.reads.Done()
		defer close(rd.done)
		defer f.Close()
		rd.snap, rd.err = core.ReadIndexSnapshot(f, rrset.StreamPartition{})
	}()
	return rd
}

// evictLocked drops least-recently-used entries (never keep, the one just
// inserted; never an entry whose build is still in flight — evicting those
// would let a re-request start a duplicate multi-hundred-MB build; and
// never an entry holding live campaign state — mutations and the spend
// ledger exist only in that entry, so evicting it would silently serve the
// pre-mutation campaign on the next request) until the cache fits
// MaxEntries; if every candidate is exempt, the cache temporarily exceeds
// the cap. Callers holding a reference to an evicted entry keep using it
// safely — eviction only removes it from the map — and its disk snapshot,
// if any, survives for a cheap reload.
func (s *Server) evictLocked(keep *entry) {
	for len(s.entries) > s.opts.MaxEntries {
		var oldest *entry
		for _, e := range s.entries {
			if e == keep || e.buildInFlight() || e.mutating.Load() != 0 || e.hasLifecycleState() {
				continue
			}
			if oldest == nil || e.lastUsed.Load() < oldest.lastUsed.Load() {
				oldest = e
			}
		}
		if oldest == nil {
			return
		}
		delete(s.entries, oldest.key)
		if oldest.inst != nil {
			for _, ad := range oldest.inst.Ads {
				s.metrics.dropBanditEstimate(oldest.key, ad.Name)
			}
		}
		s.opts.Logf("serve: evicted %s (LRU, cache cap %d)", oldest.key, s.opts.MaxEntries)
	}
}

// indexFor returns the entry's index, building (or loading from snapshot)
// it on first use. Concurrent callers for one entry share a single build.
// cold reports whether this call did the build; waited whether it blocked
// on another caller's build. Build errors are cached: instances are valid
// by construction here, so an index failure is a bug, not a transient.
func (s *Server) indexFor(e *entry) (_ *core.Index, cold, waited bool, _ error) {
	e.idxMu.Lock()
	if ch := e.idxReady; ch != nil {
		e.idxMu.Unlock()
		select {
		case <-ch:
		default:
			waited = true
			<-ch
		}
		return e.idx, false, waited, e.idxErr
	}
	ch := make(chan struct{})
	e.idxReady = ch
	e.idxMu.Unlock()

	s.buildIndex(e)
	close(ch)
	return e.idx, true, false, e.idxErr
}

// buildIndex samples (or snapshot-loads) the entry's index.
func (s *Server) buildIndex(e *entry) {
	started := time.Now()
	if path := s.snapshotPath(e.key); path != "" {
		idx, err := s.loadSnapshot(e)
		if idx != nil {
			e.idx = idx
			e.fromDisk = true
			s.metrics.snapshotLoads.Inc()
			e.buildSec = time.Since(started).Seconds()
			s.opts.Logf("serve: loaded index %s from snapshot (%d ads, %.1f MB) in %.2fs",
				e.key, idx.NumAds(), float64(idx.MemBytes())/1e6, e.buildSec)
			return
		}
		if err != nil {
			s.opts.Logf("serve: snapshot %s unusable (%v); rebuilding", path, err)
		}
	}

	idx, err := core.BuildIndex(e.inst, e.params.Seed, core.TIRMOptions{MaxTheta: s.opts.MaxTheta})
	if err != nil {
		e.idxErr = err
		return
	}
	e.idx = idx
	e.buildSec = time.Since(started).Seconds()
	s.opts.Logf("serve: built index %s (%d ads, %d sets, %.1f MB) in %.2fs",
		e.key, idx.NumAds(), idx.SetsSampled(), float64(idx.MemBytes())/1e6, e.buildSec)
	// Persist the fresh index; failures are logged, never fatal.
	if path := s.snapshotPath(e.key); path != "" {
		if err := idx.WriteSnapshotFile(path); err != nil {
			s.opts.Logf("serve: snapshot %s: %v", path, err)
		} else {
			s.opts.Logf("serve: wrote snapshot %s", path)
		}
	}
}

// loadSnapshot binds the entry's snapshot to its instance: the read
// entryFor started beside generation or, when it started none, one started
// now. It returns (nil, nil) when there is no snapshot file. Only the index
// builder calls it.
func (s *Server) loadSnapshot(e *entry) (*core.Index, error) {
	rd := e.read
	e.read = nil
	if rd == nil {
		if rd = s.startSnapshotRead(e.key); rd == nil {
			return nil, nil
		}
	}
	<-rd.done
	if rd.err != nil {
		return nil, rd.err
	}
	return rd.snap.Bind(e.inst)
}

func (s *Server) snapshotPath(key string) string {
	if s.opts.SnapshotDir == "" {
		return ""
	}
	return filepath.Join(s.opts.SnapshotDir, SnapshotName(key)+".adix")
}

// SnapshotName maps an instance key (InstanceParams.Key) onto the
// filesystem-safe stem of its snapshot file: letters, digits and ".-_="
// stay, every other rune becomes "_". adserver appends ".adix", adshard its
// slice suffix.
func SnapshotName(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_', r == '=':
			return r
		default:
			return '_'
		}
	}, key)
}

// errTooManyLiveCampaigns rejects a mutation that would pin yet another
// entry against eviction once every cache slot already holds live campaign
// state — the bound that keeps MaxEntries a real memory cap even though
// lifecycle state exempts entries from LRU.
var errTooManyLiveCampaigns = errors.New(
	"every cache slot holds live campaign state; retire a campaign (DELETE /ads) or reset its spend before mutating a new one")

// mutationEntry resolves the entry a campaign mutation targets and marks
// it mutating *atomically with cache membership* (under s.mu): eviction
// also runs under s.mu and skips mutating entries, so an entry can never
// be recycled between resolution and the mutation landing — the race that
// would otherwise let the server acknowledge a mutation (200) and then
// serve the pre-mutation campaign from a replacement entry. Entries about
// to acquire their first lifecycle state are admitted only while fewer
// than MaxEntries entries are pinned. Callers must arrange
// `defer e.mutating.Add(-1)`.
func (s *Server) mutationEntry(p InstanceParams, n need) (*entry, error) {
	for {
		e, _, _, err := s.entryFor(p, n)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		cur, ok := s.entries[e.key]
		if !ok {
			s.entries[e.key] = e // evicted in the resolution window; restore
			cur = e
		}
		if cur != e {
			// The key was recycled to a different entry mid-resolution;
			// retry — entryFor now resolves to the current one.
			s.mu.Unlock()
			continue
		}
		if !e.hasLifecycleState() {
			pinned := 0
			for _, o := range s.entries {
				// An in-flight first mutation (mutating set, state not yet
				// landed) must count too, or concurrent first mutations on
				// distinct entries would all pass the gate and pin more
				// than MaxEntries campaigns.
				if o != e && (o.mutating.Load() != 0 || o.hasLifecycleState()) {
					pinned++
				}
			}
			if pinned >= s.opts.MaxEntries {
				s.mu.Unlock()
				return nil, errTooManyLiveCampaigns
			}
		}
		e.mutating.Add(1)
		s.mu.Unlock()
		return e, nil
	}
}
