// The shard RPC protocol: the coverage / marginal-gain / commit steps of a
// distributed selection run, plus shard lifecycle (info, epoch-synced
// campaign mutations, drain). Every payload field of a run op is an integer
// — widths, set counts, coverage counts, sparse decrement vectors — so a
// reply's bytes carry no floating-point representation at all, and the
// in-process and HTTP transports are interchangeable bit for bit. Over HTTP
// the six run ops (Pilot, Start, Commit, Credit, Grow, Gains) travel in the
// binary integer codec of wire.go; the lifecycle ops travel as JSON, which
// is what the json tags below spell.

package shard

import (
	"context"
	"errors"

	"repro/internal/core"
)

// Wire-level sentinel errors. The HTTP transport maps them onto status
// codes and back, so coordinator retry logic behaves identically over
// either transport.
var (
	// ErrStaleEpoch reports that the shard's campaign epoch moved past the
	// one the request was prepared for (mirrors core.ErrStaleEpoch).
	ErrStaleEpoch = errors.New("shard: campaign epoch changed since the request was prepared")
	// ErrUnknownRun reports an RPC against a run id the shard does not
	// hold — never opened, already ended, or reaped after idling.
	ErrUnknownRun = errors.New("shard: unknown run id")
	// ErrDraining reports that the shard refuses new runs while it drains.
	ErrDraining = errors.New("shard: draining, not accepting new runs")
	// ErrBadSeq reports a sequenced run op (Commit/Credit/Grow) whose Seq
	// is neither the next expected value nor an exact retry of the last
	// applied one (or is not a sequence number at all: Seq ≤ 0) — the
	// run has diverged from its caller, which ends it and re-runs it.
	ErrBadSeq = errors.New("shard: run op out of sequence")
)

// op indexes the Client method set; opTable below is the one place an op's
// name, deadline class and route are written down.
type op uint8

const (
	opInfo op = iota
	opPilot
	opEnsure
	opStart
	opCommit
	opCredit
	opGrow
	opGains
	opEnd
	opAddAd
	opRemoveAd
	numOps
)

// opRow is one op's entry in opTable.
type opRow struct {
	name     string
	sampling bool
	path     string
}

// opTable holds one row per Client method. name is the op's label wherever
// one is needed: the op value of the RPC metrics, the "rpc.<name>" span and
// FaultRule.Op. sampling marks the ops that may draw fresh RR sets, whose
// cost scales with θ: they run under RetryPolicy.SamplingTimeout, the rest
// under RetryPolicy.Timeout. path is the op's route on a shard daemon, under
// its base URL (http.go).
var opTable = [numOps]opRow{
	opInfo:     {name: "info", path: "/shard/info"},
	opPilot:    {name: "pilot", sampling: true, path: "/shard/pilot"},
	opEnsure:   {name: "ensure", sampling: true, path: "/shard/ensure"},
	opStart:    {name: "start", sampling: true, path: "/shard/start"},
	opCommit:   {name: "commit", path: "/shard/commit"},
	opCredit:   {name: "credit", path: "/shard/credit"},
	opGrow:     {name: "grow", sampling: true, path: "/shard/grow"},
	opGains:    {name: "gains", path: "/shard/gains"},
	opEnd:      {name: "end", path: "/shard/end"},
	opAddAd:    {name: "addAd", sampling: true, path: "/shard/ads"},
	opRemoveAd: {name: "removeAd", path: "/shard/remove"},
}

// String returns the op's table name.
func (o op) String() string { return opTable[o].name }

// roundSpans and rpcSpans hold each op's span names, built once: the
// coordinator's "round.<name>" (gather) and the retry layer's "rpc.<name>".
var roundSpans, rpcSpans = spanNames("round."), spanNames("rpc.")

// spanNames returns prefix+name for every op in opTable.
func spanNames(prefix string) (names [numOps]string) {
	for o, row := range opTable {
		names[o] = prefix + row.name
	}
	return names
}

// SparseCounts is a sparse per-node integer vector: node Nodes[i] carries
// Counts[i]. It ships initial coverage, growth credits, and commit
// decrements.
type SparseCounts struct {
	// Nodes lists the touched nodes.
	Nodes []int32 `json:"nodes"`
	// Counts holds each node's count, aligned with Nodes.
	Counts []int32 `json:"counts"`
}

// DatasetParams identifies the generated instance a shard daemon was
// launched with, so a coordinator host can rebuild the identical roster
// locally instead of shipping graphs over the wire (identity is still
// enforced by the fingerprint — these are a convenience, not a proof).
type DatasetParams struct {
	// Name is the registered dataset generator.
	Name string `json:"name"`
	// Seed is the generator seed.
	Seed uint64 `json:"seed"`
	// Scale is the dataset scale.
	Scale float64 `json:"scale"`
	// NumAds is the advertiser-count override (0 = dataset default).
	NumAds int `json:"numAds"`
}

// ShardInfo describes one shard — identity, partition slot, campaign
// state and placement, and load — for cluster validation and health
// reporting.
type ShardInfo struct {
	// Dataset names the generated instance the daemon was launched with
	// (zero value for in-process shards, which share the roster directly).
	Dataset DatasetParams `json:"dataset"`
	// Shard is the partition slot in [0, NumShards).
	Shard int `json:"shard"`
	// NumShards is the cluster's K.
	NumShards int `json:"numShards"`
	// Seed is the stream seed the shard samples under.
	Seed uint64 `json:"seed"`
	// Fingerprint is core.InstanceFingerprint of the shard's full base
	// roster; a coordinator refuses a cluster with mixed fingerprints.
	Fingerprint uint64 `json:"fingerprint"`
	// CampaignFingerprint hashes the shard's *current* campaign set —
	// positions, names, budgets, CPEs, propagation profiles, sampled CTPs
	// (see campaignFingerprint). A coordinator reconstructs its campaign
	// mirror as a roster prefix, which is only valid while no mutations
	// have landed; this fingerprint lets it detect a mutated live cluster
	// and refuse to mirror it wrongly.
	CampaignFingerprint uint64 `json:"campaignFingerprint"`
	// Epoch is the shard's current campaign epoch.
	Epoch uint64 `json:"epoch"`
	// NumAds is the current campaign size.
	NumAds int `json:"numAds"`
	// Streams holds each campaign position's stream id, in position order:
	// its sample's, so ads that share a sample repeat it. Position j lives
	// whole on slot Streams[j] mod NumShards, which is how
	// a coordinator routes every per-ad op; all shards of a cluster report
	// the same list.
	Streams []uint64 `json:"streams"`
	// SetsSampled counts RR-sets drawn over the shard's lifetime.
	SetsSampled int64 `json:"setsSampled"`
	// MemBytes is the exact footprint of the shard's stored sample.
	MemBytes int64 `json:"memBytes"`
	// OpenRuns is the number of live selection runs.
	OpenRuns int `json:"openRuns"`
	// Draining reports whether the shard refuses new runs.
	Draining bool `json:"draining"`
}

// PilotRequest asks an owner for per-ad pilot widths: for each listed ad,
// the widths of its sets below the prefix Want, growing samples as needed.
// Every listed ad must be one the shard owns.
type PilotRequest struct {
	// Epoch pins the campaign epoch the ad positions refer to.
	Epoch uint64 `json:"epoch"`
	// Ads lists the ad positions to pilot.
	Ads []int `json:"ads"`
	// Want is the pilot size (TIRMOptions.MinTheta after defaults).
	Want int `json:"want"`
	// SkipWidths elides the width payload from the reply: the shard still
	// grows every listed ad's sample to the pilot prefix (so Fresh/Have
	// accounting is identical), but ships no widths — the coordinator
	// already holds them cached, and pilot widths are immutable for a
	// given (epoch, ad, want).
	SkipWidths bool `json:"skipWidths,omitempty"`
}

// PilotReply carries per-ad pilot widths, aligned with the request's Ads.
// Have reports each ad's set count before this call grew anything (the
// warm-start baseline), Fresh the sets drawn by it.
type PilotReply struct {
	// Widths[i] are the widths of request ad i's pilot, in stream order.
	Widths [][]int64 `json:"widths"`
	// Have[i] is request ad i's pre-call set count.
	Have []int `json:"have"`
	// Fresh is the total sets this call drew.
	Fresh int64 `json:"fresh"`
}

// StartRequest opens a selection run on one owner: the shard builds one
// coverage collection per listed ad — each one it owns — over the prefix
// [0, Thetas[i]). Start is level-triggered on RunID — re-opening an
// already-open run id rebuilds it from scratch (deterministic streams make
// the rebuilt state identical), so a retried or replayed Start is safe.
// Each collection sweeps with the cover kernel its sample's density selects
// (rrset.Inverted.PrepareCover); the request cannot choose one, and every
// reply integer is kernel-independent.
type StartRequest struct {
	// RunID names the run for subsequent Commit/Credit/Grow/Gains/End.
	RunID string `json:"runId"`
	// Epoch pins the campaign epoch; the whole run stays on it.
	Epoch uint64 `json:"epoch"`
	// Ads lists the participating ad positions.
	Ads []int `json:"ads"`
	// Thetas holds each ad's θ, aligned with Ads.
	Thetas []int `json:"thetas"`
}

// StartReply reports each ad's initial coverage.
type StartReply struct {
	// Cov[i] is request ad i's initial per-node coverage (nodes with
	// nonzero counts only).
	Cov []SparseCounts `json:"cov"`
	// LocalSets[i] is how many sets back request ad i's collection.
	LocalSets []int `json:"localSets"`
	// Kernels[i] is the rrset.KernelID request ad i's collection runs on.
	Kernels []uint8 `json:"kernels,omitempty"`
	// Fresh is the total sets this call drew.
	Fresh int64 `json:"fresh"`
}

// CommitRequest retires seed Node's residual coverage for one ad — the
// owner's half of Algorithm 2's commit step.
type CommitRequest struct {
	// RunID names the run.
	RunID string `json:"runId"`
	// Ad is the ad position within the run.
	Ad int `json:"ad"`
	// Node is the committed seed.
	Node int32 `json:"node"`
	// Seq numbers the run's sequenced ops (Commit, Credit and Grow share
	// one count) from 1 and is required: it is what makes the op
	// level-triggered. The shard applies the op only if Seq is exactly one
	// past the run's last applied number, answers an exact replay (Seq equal
	// to the last applied) with the cached reply without re-applying, and
	// rejects anything else — a gap, a rewind, Seq ≤ 0 — with ErrBadSeq
	// (412 over HTTP). The coordinator's backend does the numbering.
	Seq int64 `json:"seq,omitempty"`
}

// CommitReply reports a commit's (or credit's) effect: Covered newly
// covered sets and the sparse per-node coverage decrements, which applied
// to the coordinator's counters reproduce the single-node effect exactly.
// Slices may alias shard-internal buffers that are reused by the next call
// for the same run — consume before issuing it.
type CommitReply struct {
	// Covered is the number of sets newly covered.
	Covered int `json:"covered"`
	// Delta holds the per-node residual-coverage decrements.
	Delta SparseCounts `json:"delta"`
}

// CreditRequest re-credits an existing seed with coverage among sets
// appended at or past a stream position (Algorithm 4's UpdateEstimates,
// restricted to the growth window).
type CreditRequest struct {
	// RunID names the run.
	RunID string `json:"runId"`
	// Ad is the ad position within the run.
	Ad int `json:"ad"`
	// Node is the already-committed seed being re-credited.
	Node int32 `json:"node"`
	// FromGlobal is the stream position growth started at.
	FromGlobal int `json:"fromGlobal"`
	// Seq is the run op sequence number (CommitRequest.Seq semantics).
	Seq int64 `json:"seq,omitempty"`
}

// GrowRequest extends one ad's run collection with its stream sets
// [FromGlobal, ToGlobal) — θ rose mid-run.
type GrowRequest struct {
	// RunID names the run.
	RunID string `json:"runId"`
	// Ad is the ad position within the run.
	Ad int `json:"ad"`
	// FromGlobal is the ad's current θ.
	FromGlobal int `json:"fromGlobal"`
	// ToGlobal is the new θ.
	ToGlobal int `json:"toGlobal"`
	// Seq is the run op sequence number (CommitRequest.Seq semantics).
	Seq int64 `json:"seq,omitempty"`
}

// GrowReply reports the growth's effect.
type GrowReply struct {
	// Added holds the appended sets' per-node coverage counts.
	Added SparseCounts `json:"added"`
	// LocalSets is how many sets the growth appended.
	LocalSets int `json:"localSets"`
	// Fresh is the sets freshly drawn (0 when the sample already held the
	// window).
	Fresh int64 `json:"fresh"`
}

// GainsRequest reads the residual coverage of candidate nodes — the
// marginal gains of a frontier on the ad's owner. The coordinator's
// optional verify mode reads these each round and checks them against its
// mirrored counters, catching shard drift in flight.
type GainsRequest struct {
	// RunID names the run.
	RunID string `json:"runId"`
	// Ad is the ad position within the run.
	Ad int `json:"ad"`
	// Nodes lists the frontier candidates to score.
	Nodes []int32 `json:"nodes"`
}

// GainsReply carries the candidates' residual coverage, aligned with the
// request's Nodes.
type GainsReply struct {
	// Cov[i] is the residual coverage of request node i.
	Cov []int32 `json:"cov"`
}

// AdSpec is core.AdSpec, the template-clone form of an advertiser, under
// the name this package has always exported it by.
type AdSpec = core.AdSpec

// AddAdRequest appends an advertiser to the shard's campaign set. Exactly
// one of the two forms is used: Base ≥ 0 activates that position of the
// shard's full generated roster (how simulated arrivals join), Base < 0
// clones Spec from a live campaign ad.
type AddAdRequest struct {
	// Epoch pins the campaign epoch the mutation applies to.
	Epoch uint64 `json:"epoch"`
	// Base is the roster position to activate, or -1 for Spec.
	Base int `json:"base"`
	// Spec is the template-cloned form (Base < 0).
	Spec AdSpec `json:"spec"`
}

// RemoveAdRequest retires the advertiser at a campaign position.
type RemoveAdRequest struct {
	// Epoch pins the campaign epoch the mutation applies to.
	Epoch uint64 `json:"epoch"`
	// Pos is the campaign position to remove.
	Pos int `json:"pos"`
}

// MutateReply reports the campaign set after a mutation.
type MutateReply struct {
	// Epoch is the shard's campaign epoch after the mutation.
	Epoch uint64 `json:"epoch"`
	// Position is the added ad's campaign position (AddAd only).
	Position int `json:"position"`
	// NumAds is the campaign size after the mutation.
	NumAds int `json:"numAds"`
	// Stream is the added ad's stream id (AddAd only) — its template's,
	// whose sample a clone joins: the ad lives on slot Stream mod K.
	Stream uint64 `json:"stream"`
}

// SyncEstimatesRequest is the argument of the retired Client.SyncEstimates.
//
// Deprecated: a shard holds no bandit state, so there is nothing to send.
type SyncEstimatesRequest struct{}

// EnsureRequest grows one ad's sample on its owner to hold the prefix
// [0, Want) and syncs its inverted index — coordinator-driven warm-up, the
// distributed equivalent of BuildIndex's presampling.
type EnsureRequest struct {
	// Epoch pins the campaign epoch the ad position refers to.
	Epoch uint64 `json:"epoch"`
	// Ad is the ad position to warm.
	Ad int `json:"ad"`
	// Want is the prefix the sample must hold.
	Want int `json:"want"`
}

// EnsureReply reports warm-up growth.
type EnsureReply struct {
	// Fresh is the sets freshly drawn.
	Fresh int64 `json:"fresh"`
}

// Client is the coordinator's view of one shard, over any transport. The
// in-process LocalClient calls the Shard directly; HTTPClient speaks the
// same protocol over the shard daemon's /shard/ endpoints (run ops in the
// binary codec of wire.go, lifecycle ops as JSON). Reply
// buffers of Commit/Credit may be reused by the next call against the same
// run — the coordinator consumes each reply before the next RPC. Every
// method but the deprecated SyncEstimates has a row in opTable.
type Client interface {
	// Info reports the shard's identity and state.
	Info(ctx context.Context) (ShardInfo, error)
	// Pilot returns per-ad pilot widths.
	Pilot(ctx context.Context, req PilotRequest) (PilotReply, error)
	// Ensure warms one ad's sample on its owner to a prefix.
	Ensure(ctx context.Context, req EnsureRequest) (EnsureReply, error)
	// Start opens a selection run and returns initial coverage.
	Start(ctx context.Context, req StartRequest) (StartReply, error)
	// Commit retires a committed seed's residual coverage.
	Commit(ctx context.Context, req CommitRequest) (CommitReply, error)
	// Credit re-credits a seed within a growth window.
	Credit(ctx context.Context, req CreditRequest) (CommitReply, error)
	// Grow extends a run collection with a stream window.
	Grow(ctx context.Context, req GrowRequest) (GrowReply, error)
	// Gains reads frontier candidates' residual coverage.
	Gains(ctx context.Context, req GainsRequest) (GainsReply, error)
	// End closes a run and frees its state.
	End(ctx context.Context, runID string) error
	// AddAd appends an advertiser to the campaign set.
	AddAd(ctx context.Context, req AddAdRequest) (MutateReply, error)
	// RemoveAd retires the advertiser at a campaign position.
	RemoveAd(ctx context.Context, req RemoveAdRequest) (MutateReply, error)
	// SyncEstimates does nothing and sends nothing: it has no opTable row.
	//
	// Deprecated: a shard holds no bandit state; the estimator lives on
	// the serving host. The method stays only so that Client
	// implementations outside this package still compile.
	SyncEstimates(ctx context.Context, req SyncEstimatesRequest) error
}
