// Package sim runs deterministic campaign-lifecycle workloads against the
// reusable RR-set index: advertisers join and leave over discrete rounds,
// engagements accrue and deplete budgets (scored by the neutral eval
// layer), and the host periodically re-allocates against the residual
// budgets B_i − spent_i. The output is a regret-over-time trace — the
// paper's Eq. 3/4 objective replayed as an online process, which is the
// workload the ROADMAP's "serve continuous traffic" north star asks for
// and the follow-up literature (adaptive/online social advertising)
// studies directly.
//
// Everything is a pure function of (instance, seed, Config): events draw
// from a split of the seed, each round's Monte Carlo engagement scoring
// from another, and allocation inherits the index stream's determinism —
// so a trace is bit-reproducible at any GOMAXPROCS, which the tests pin.
package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// Config shapes a lifecycle run. The zero value gets the defaults noted on
// each field.
type Config struct {
	// InitialAds is how many of the instance's ads are live at round 1;
	// the rest queue as future arrivals (default: half, at least 1).
	InitialAds int
	// Rounds is the number of simulated rounds (default 24).
	Rounds int
	// ReallocEvery re-allocates every k rounds even without campaign
	// churn (default 4). Churn rounds always re-allocate.
	ReallocEvery int
	// ArrivalProb is the per-round probability that the next queued ad
	// joins (default 0.3; ignored once the queue is empty; negative
	// disables arrivals).
	ArrivalProb float64
	// DepartProb is the per-round probability that a uniformly chosen
	// live ad leaves (default 0.08; never drops the last ad; negative
	// disables departures).
	DepartProb float64
	// EngagementRate converts each round's Monte Carlo revenue estimate
	// into budget depletion: spent_i += rate·Π̂_i, capped at B_i
	// (default 0.2).
	EngagementRate float64
	// EvalRuns is the Monte Carlo cascade count per ad per round
	// (default 400).
	EvalRuns int
	// Opts are the TIRM options for index presampling and every
	// re-allocation.
	Opts core.TIRMOptions
	// Shards, when ≥ 2, runs the whole lifecycle against an in-process
	// sharded cluster (internal/shard): K shard indexes behind a
	// scatter-gather coordinator, with campaign churn broadcast in
	// lockstep. The trace is bit-identical to the single-node run — the
	// distributed hot path replayed under the exact same workload, which
	// TestLifecycleShardedMatchesSingleNode pins.
	Shards int
	// Replicas, when > 1 (with Shards ≥ 2), serves every partition range
	// with that many in-process replicas behind failover ReplicaSets. The
	// semantic trace (allocations, revenues, regret) stays bit-identical;
	// only sampling accounting may shift when chaos forces failovers.
	Replicas int
	// ChaosSeed, when nonzero (with Shards ≥ 2), splices a deterministic
	// fault injector under every replica client: each RPC fails with
	// probability 5% from a stream seeded by (ChaosSeed, slot, replica),
	// healed by the retry layer and replica failover. The semantic trace
	// must match the fault-free run — TestLifecycleChaosMatches pins it.
	ChaosSeed uint64
	// Bandit, when non-empty, runs the lifecycle in online-CPE-learning
	// mode with the named bandit policy ("ucb", "thompson", or the
	// never-update baseline "frozen"). Each ad gets a hidden true
	// engagement rate q_j (a deterministic function of its name); the
	// Monte Carlo engagement events of every round feed a
	// bandit.Estimator, re-allocations consume the estimator's
	// effective-CPE overrides, and each round additionally scores a
	// known-CPE oracle allocation (CPE_j·q_j) on the same paired eval
	// stream. The trace then carries the cumulative regret of the
	// learning policy against that oracle — bit-reproducible at any
	// Shards setting. Empty keeps the classic known-CPE lifecycle,
	// byte-identical to previous releases.
	Bandit string
	// Tracer, when non-nil (with Shards ≥ 2), opens one "sim.allocate"
	// root span per sharded allocation so lifecycle runs leave
	// inspectable span trees: retry and failover events raised inside
	// the coordinator's round/RPC layers flag their trace for tail
	// retention, which is how a chaos run proves its failovers were
	// traced. Nil traces nothing; the semantic trace is identical
	// either way.
	Tracer *obs.Tracer
}

func (c Config) withDefaults(numAds int) Config {
	if c.InitialAds <= 0 {
		c.InitialAds = (numAds + 1) / 2
	}
	if c.InitialAds > numAds {
		c.InitialAds = numAds
	}
	if c.Rounds <= 0 {
		c.Rounds = 24
	}
	if c.ReallocEvery <= 0 {
		c.ReallocEvery = 4
	}
	if c.ArrivalProb == 0 {
		c.ArrivalProb = 0.3
	}
	if c.DepartProb == 0 {
		c.DepartProb = 0.08
	}
	if c.EngagementRate <= 0 {
		c.EngagementRate = 0.2
	}
	if c.EvalRuns <= 0 {
		c.EvalRuns = 400
	}
	return c
}

// RoundReport is one round of the trace.
type RoundReport struct {
	// Round numbers from 1.
	Round int
	// Events lists campaign churn this round ("join:name", "leave:name").
	Events []string
	// NumAds is the live campaign count after churn.
	NumAds int
	// Epoch is the index epoch after churn (see core.Index.Epoch).
	Epoch uint64
	// Reallocated reports whether the host re-ran selection this round.
	Reallocated bool
	// SetsSampled counts RR-sets freshly drawn by this round's
	// re-allocation (0 on warm rounds — the steady state).
	SetsSampled int64
	// TotalSeeds is Σ|S_i| of the standing allocation.
	TotalSeeds int
	// Revenue is the round's Monte Carlo estimate of Σ Π_i(S_i).
	Revenue float64
	// SpendDelta is the budget spent this round across ads.
	SpendDelta float64
	// SpentTotal is cumulative spend across live ads.
	SpentTotal float64
	// ResidualBudget is Σ max(B_i − spent_i, 0) over live ads.
	ResidualBudget float64
	// Regret is Σ |(B_i − spent_i) − Π̂_i(S_i)| + λ|S_i| — Eq. 3 against
	// the residual budgets, the quantity re-allocation minimizes.
	Regret float64
	// RegretOverBudget is Regret / Σ B_i over live ads (the paper's
	// reporting unit).
	RegretOverBudget float64
	// OracleRevenue is the round's q-scaled revenue of the known-CPE
	// oracle allocation (bandit mode only; 0 otherwise).
	OracleRevenue float64
	// OracleRegret is the oracle allocation's Eq. 3 score this round
	// (bandit mode only).
	OracleRegret float64
	// BanditRegret is the cumulative learning regret through this round:
	// Σ over rounds of (Regret − OracleRegret). Bandit mode only.
	BanditRegret float64
}

// AdFate is one advertiser's end-of-run bookkeeping.
type AdFate struct {
	// Name is the ad's name.
	Name string
	// Budget is B_i.
	Budget float64
	// Spent is the cumulative engagement spend when the run ended (or the
	// ad departed).
	Spent float64
	// Joined is the round the ad went live (0 = live from the start).
	Joined int
	// Departed is the round the ad left (0 = still live at the end).
	Departed int
}

// Result is a full lifecycle trace.
type Result struct {
	// Trace has one entry per round.
	Trace []RoundReport
	// Ads reports every advertiser that was ever live.
	Ads []AdFate
	// FinalEpoch is the index epoch after the last round.
	FinalEpoch uint64
	// TotalSetsSampled counts every RR-set drawn over the run (initial
	// build plus all re-allocation growth).
	TotalSetsSampled int64
	// Reallocations counts selection runs.
	Reallocations int
	// CumulativeRegret is the final cumulative learning regret against
	// the known-CPE oracle (bandit mode only; 0 otherwise).
	CumulativeRegret float64
	// Estimator is the final estimator snapshot (nil unless bandit mode).
	Estimator *bandit.State
}

// engine abstracts where the lifecycle's index lives: a single-node
// core.Index or a sharded cluster behind a coordinator. Both are driven by
// the identical event stream, and both produce the identical trace.
type engine interface {
	// Inst returns the current campaign instance.
	Inst() *core.Instance
	// EpochInst returns the current epoch and instance as one pair.
	EpochInst() (uint64, *core.Instance)
	// Epoch returns the current campaign epoch.
	Epoch() uint64
	// AddAd activates the arrival at roster position rosterPos (= the
	// index the ad had in the full instance).
	AddAd(rosterPos int, ad core.Ad, opts core.TIRMOptions) error
	// RemoveAd retires the campaign position.
	RemoveAd(pos int) error
	// Allocate runs one selection.
	Allocate(req core.Request) (*core.TIRMResult, error)
	// SetsSampled reports lifetime RR-sets drawn.
	SetsSampled() (int64, error)
}

// coreEngine drives a single-node index.
type coreEngine struct {
	idx  *core.Index
	pool *core.WorkspacePool
}

func (e *coreEngine) Inst() *core.Instance                { return e.idx.Inst() }
func (e *coreEngine) EpochInst() (uint64, *core.Instance) { return e.idx.EpochInst() }
func (e *coreEngine) Epoch() uint64                       { return e.idx.Epoch() }
func (e *coreEngine) AddAd(_ int, ad core.Ad, opts core.TIRMOptions) error {
	_, err := e.idx.AddAd(ad, opts)
	return err
}
func (e *coreEngine) RemoveAd(pos int) error { return e.idx.RemoveAd(pos) }
func (e *coreEngine) Allocate(req core.Request) (*core.TIRMResult, error) {
	req.Pool = e.pool
	return core.AllocateFromIndex(e.idx, req)
}
func (e *coreEngine) SetsSampled() (int64, error) { return e.idx.SetsSampled(), nil }

// shardEngine drives an in-process sharded cluster. A non-nil tracer
// roots every allocation in a span so coordinator-level retry/failover
// events have a trace to retain.
type shardEngine struct {
	coord  *shard.Coordinator
	tracer *obs.Tracer
}

func (e *shardEngine) Inst() *core.Instance                { return e.coord.Inst() }
func (e *shardEngine) EpochInst() (uint64, *core.Instance) { return e.coord.EpochInst() }
func (e *shardEngine) Epoch() uint64                       { return e.coord.Epoch() }
func (e *shardEngine) AddAd(rosterPos int, _ core.Ad, opts core.TIRMOptions) error {
	_, err := e.coord.AddAdBase(context.Background(), rosterPos, opts)
	return err
}
func (e *shardEngine) RemoveAd(pos int) error { return e.coord.RemoveAd(context.Background(), pos) }
func (e *shardEngine) Allocate(req core.Request) (*core.TIRMResult, error) {
	ctx := context.Background()
	if e.tracer == nil {
		return e.coord.Allocate(ctx, req)
	}
	ctx, span := e.tracer.StartSpan(ctx, "sim.allocate")
	res, err := e.coord.Allocate(ctx, req)
	span.EndErr(err)
	return res, err
}
func (e *shardEngine) SetsSampled() (int64, error) {
	return e.coord.SetsSampled(context.Background())
}

// allocate runs one selection on the engine and checks its result against
// the request (core.CheckAllocation), so every allocation step of a run —
// at any shard count, under chaos or not — is a checked one.
func allocate(e engine, inst *core.Instance, req core.Request) (*core.TIRMResult, error) {
	res, err := e.Allocate(req)
	if err != nil {
		return nil, err
	}
	if err := core.CheckAllocation(inst, req, res); err != nil {
		return nil, err
	}
	return res, nil
}

// chaosWrap builds the replica-client decorator for chaos mode: a
// deterministic fault injector (5% of RPCs fail, from a per-replica
// stream split off chaosSeed) under a fast retry layer, so the lifecycle
// exercises retry + failover on every run while staying bit-reproducible.
// A zero chaosSeed returns nil — plain replication, no faults.
func chaosWrap(chaosSeed uint64) func(slot, rep int, cl shard.Client) shard.Client {
	if chaosSeed == 0 {
		return nil
	}
	return func(slot, rep int, cl shard.Client) shard.Client {
		sub := xrand.New(chaosSeed).Split(uint64(slot)).Split(uint64(rep)).Seed()
		fc := shard.NewFaultClient(cl, sub, shard.FaultRule{Op: "*", Kind: shard.FaultError, Prob: 0.05})
		// In-process: backoff time is pure overhead, so keep it microscopic;
		// determinism comes from the seeds, not the clock.
		return shard.NewRetryClient(fc, shard.RetryPolicy{
			BaseBackoff: time.Microsecond,
			MaxBackoff:  time.Microsecond,
			Seed:        sub + 1,
		}, nil)
	}
}

// banditState carries the online-learning side of a bandit-mode run: the
// estimator under test, the feedback event stream, and the oracle's
// standing allocation for the regret comparison.
type banditState struct {
	est         bandit.Estimator
	fbRoot      *xrand.Rand
	oracleSeeds map[string][]int32
	cum         float64
}

// trueEngagementRate is the hidden per-ad engagement probability q_j a
// bandit-mode run must learn: a deterministic hash of the ad name spread
// over [0.35, 0.95], so the workload mixes strong and weak campaigns
// without any extra configuration or RNG draw.
func trueEngagementRate(name string) float64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return 0.35 + 0.6*float64(h%10000)/10000
}

// trueCPEs returns the oracle's effective CPEs, CPE_j·q_j.
func trueCPEs(curr *core.Instance) []float64 {
	out := make([]float64, len(curr.Ads))
	for j, ad := range curr.Ads {
		out[j] = ad.CPE * trueEngagementRate(ad.Name)
	}
	return out
}

// learnedCPEs returns the estimator's effective CPEs, CPE_j·index_j.
func (bs *banditState) learnedCPEs(curr *core.Instance) []float64 {
	names := make([]string, len(curr.Ads))
	base := make([]float64, len(curr.Ads))
	for j, ad := range curr.Ads {
		names[j] = ad.Name
		base[j] = ad.CPE
	}
	return bs.est.Overrides(names, base)
}

// Run simulates the lifecycle workload over inst's advertisers: the first
// Config.InitialAds are live at round 1, the rest arrive in order as the
// event stream fires. Deterministic for a fixed (inst, seed, cfg) — at any
// Config.Shards setting.
func Run(inst *core.Instance, seed uint64, cfg Config) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(len(inst.Ads))

	initial := make([]core.Ad, cfg.InitialAds)
	copy(initial, inst.Ads[:cfg.InitialAds])
	queue := inst.Ads[cfg.InitialAds:]
	var idx engine
	if cfg.Shards >= 2 {
		var coord *shard.Coordinator
		var err error
		if cfg.Replicas > 1 || cfg.ChaosSeed != 0 {
			coord, _, _, err = shard.NewReplicaCluster(inst, cfg.InitialAds, seed, cfg.Shards,
				cfg.Replicas, shard.Config{}, chaosWrap(cfg.ChaosSeed))
		} else {
			coord, _, err = shard.NewLocalCluster(inst, cfg.InitialAds, seed, cfg.Shards, shard.Config{})
		}
		if err != nil {
			return nil, err
		}
		// Warm mirrors BuildIndex's presampling, so round-by-round growth
		// accounting matches the single-node trace exactly.
		if err := coord.Warm(context.Background(), cfg.Opts); err != nil {
			return nil, err
		}
		idx = &shardEngine{coord: coord, tracer: cfg.Tracer}
	} else {
		base := *inst
		base.Ads = initial
		built, err := core.BuildIndex(&base, seed, cfg.Opts)
		if err != nil {
			return nil, err
		}
		// One pool for the whole run: every periodic/churn re-allocation
		// after the first recycles its selection workspace, which is what
		// keeps the lifecycle loop's steady-state rounds allocation-quiet.
		idx = &coreEngine{idx: built, pool: &core.WorkspacePool{}}
	}

	events := xrand.New(seed).Split(0xe7e)
	evalRoot := xrand.New(seed).Split(0x5c0)
	nextRoster := cfg.InitialAds // roster position of the next arrival

	// Bandit mode: all extra streams and state are split off up front, so
	// the classic (Bandit == "") event and eval streams are untouched and
	// existing traces replay byte-identically.
	var bs *banditState
	if cfg.Bandit != "" {
		est, err := bandit.New(cfg.Bandit, xrand.New(seed).Split(0xba4d17).Seed())
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		bs = &banditState{
			est:         est,
			fbRoot:      xrand.New(seed).Split(0xfeedb4),
			oracleSeeds: map[string][]int32{},
		}
	}

	res := &Result{Trace: make([]RoundReport, 0, cfg.Rounds)}
	fates := make(map[string]*AdFate, len(inst.Ads))
	var fateOrder []string
	for _, ad := range initial {
		fates[ad.Name] = &AdFate{Name: ad.Name, Budget: ad.Budget}
		fateOrder = append(fateOrder, ad.Name)
	}
	spent := map[string]float64{} // live ads only, by name
	seeds := map[string][]int32{} // standing allocation, by name
	needRealloc := true

	for r := 1; r <= cfg.Rounds; r++ {
		rep := RoundReport{Round: r}

		// Campaign churn: at most one departure and one arrival per round,
		// drawn from the event stream in a fixed order.
		if curr := idx.Inst(); len(curr.Ads) > 1 && events.Bernoulli(cfg.DepartProb) {
			pos := events.IntN(len(curr.Ads))
			name := curr.Ads[pos].Name
			if err := idx.RemoveAd(pos); err != nil {
				return nil, fmt.Errorf("sim: round %d remove %q: %w", r, name, err)
			}
			fates[name].Spent = spent[name]
			fates[name].Departed = r
			delete(spent, name)
			delete(seeds, name)
			if bs != nil {
				delete(bs.oracleSeeds, name)
			}
			rep.Events = append(rep.Events, "leave:"+name)
			needRealloc = true
		}
		if len(queue) > 0 && events.Bernoulli(cfg.ArrivalProb) {
			ad := queue[0]
			queue = queue[1:]
			if err := idx.AddAd(nextRoster, ad, cfg.Opts); err != nil {
				return nil, fmt.Errorf("sim: round %d add %q: %w", r, ad.Name, err)
			}
			nextRoster++
			fates[ad.Name] = &AdFate{Name: ad.Name, Budget: ad.Budget, Joined: r}
			fateOrder = append(fateOrder, ad.Name)
			rep.Events = append(rep.Events, "join:"+ad.Name)
			needRealloc = true
		}

		epoch, curr := idx.EpochInst()
		rep.Epoch = epoch
		rep.NumAds = len(curr.Ads)

		// Periodic (and churn-triggered) re-allocation against residual
		// budgets: the regret-minimizing replay of Eq. 3.
		if needRealloc || (r-1)%cfg.ReallocEvery == 0 {
			spentVec := make([]float64, len(curr.Ads))
			for j, ad := range curr.Ads {
				spentVec[j] = spent[ad.Name]
			}
			var cpes []float64
			if bs != nil {
				// The known-CPE oracle allocates first against CPE_j·q_j —
				// the benchmark the learning policy's regret is measured
				// against. It runs through the same engine (and so grows
				// the index identically at any shard count) but never
				// becomes the standing allocation.
				oracle, err := allocate(idx, curr, core.Request{
					Opts:        cfg.Opts,
					CPEs:        trueCPEs(curr),
					SpentBudget: spentVec,
					Epoch:       epoch,
				})
				if err != nil {
					return nil, fmt.Errorf("sim: round %d oracle allocation: %w", r, err)
				}
				for j, ad := range curr.Ads {
					bs.oracleSeeds[ad.Name] = oracle.Alloc.Seeds[j]
				}
				rep.SetsSampled += oracle.TotalSetsSampled
				cpes = bs.learnedCPEs(curr)
			}
			out, err := allocate(idx, curr, core.Request{
				Opts:        cfg.Opts,
				CPEs:        cpes,
				SpentBudget: spentVec,
				Epoch:       epoch,
			})
			if err != nil {
				return nil, fmt.Errorf("sim: round %d re-allocation: %w", r, err)
			}
			for j, ad := range curr.Ads {
				seeds[ad.Name] = out.Alloc.Seeds[j]
			}
			rep.Reallocated = true
			rep.SetsSampled += out.TotalSetsSampled
			res.Reallocations++
			needRealloc = false
		}

		// Engagements: score the standing allocation with neutral Monte
		// Carlo cascades and convert a fraction into budget depletion.
		alloc := &core.Allocation{Seeds: make([][]int32, len(curr.Ads))}
		for j, ad := range curr.Ads {
			alloc.Seeds[j] = seeds[ad.Name]
		}
		out := eval.Evaluate(curr, alloc, cfg.EvalRuns, evalRoot.Split(uint64(r)))
		// In bandit mode the oracle's standing allocation is scored on the
		// same Split(r) eval stream — Split is a pure function of (seed,
		// idx), so both evaluations see identical cascades and the regret
		// difference isolates allocation quality from Monte Carlo noise.
		var oracleOut *eval.Outcome
		var oalloc *core.Allocation
		var orevs []float64
		if bs != nil {
			orevs = make([]float64, len(curr.Ads))
			oalloc = &core.Allocation{Seeds: make([][]int32, len(curr.Ads))}
			for j, ad := range curr.Ads {
				oalloc.Seeds[j] = bs.oracleSeeds[ad.Name]
			}
			oracleOut = eval.Evaluate(curr, oalloc, cfg.EvalRuns, evalRoot.Split(uint64(r)))
		}
		// Per-ad realized revenue and post-round spend, for the round's
		// regret against the residual budgets (core.RegretOver).
		revs := make([]float64, len(curr.Ads))
		spentNow := make([]float64, len(curr.Ads))
		for j, ad := range curr.Ads {
			rev := out.Ads[j].Revenue
			if bs != nil {
				// Realized value scales by the hidden engagement rate: a
				// spread impression only pays out when it engages.
				rev *= trueEngagementRate(ad.Name)
			}
			ds := cfg.EngagementRate * rev
			if room := ad.Budget - spent[ad.Name]; ds > room {
				ds = room
			}
			if ds > 0 {
				spent[ad.Name] += ds
				rep.SpendDelta += ds
			}
			residual := ad.Budget - spent[ad.Name]
			if residual > 0 {
				rep.ResidualBudget += residual
			}
			rep.SpentTotal += spent[ad.Name]
			rep.Revenue += rev
			rep.TotalSeeds += len(alloc.Seeds[j])
			revs[j], spentNow[j] = rev, spent[ad.Name]
			if bs != nil {
				orevs[j] = oracleOut.Ads[j].Revenue * trueEngagementRate(ad.Name)
				rep.OracleRevenue += orevs[j]
			}
		}
		rep.Regret = core.RegretOver(curr, nil, nil, spentNow, revs, alloc.Seeds)
		if bs != nil {
			rep.OracleRegret = core.RegretOver(curr, nil, nil, spentNow, orevs, oalloc.Seeds)
			bs.cum += rep.Regret - rep.OracleRegret
			rep.BanditRegret = bs.cum

			// Feedback: every Monte Carlo cascade run is an impression of
			// the ad's seed set; each engages with probability q_j. The
			// estimator only sees these observable events — never q_j.
			fb := bs.fbRoot.Split(uint64(r))
			for j, ad := range curr.Ads {
				rj := fb.Split(uint64(j))
				q := trueEngagementRate(ad.Name)
				var clicks int64
				for i := 0; i < cfg.EvalRuns; i++ {
					if rj.Bernoulli(q) {
						clicks++
					}
				}
				if err := bs.est.Observe(bandit.Event{
					Ad:          ad.Name,
					Impressions: int64(cfg.EvalRuns),
					Clicks:      clicks,
				}); err != nil {
					return nil, fmt.Errorf("sim: round %d feedback: %w", r, err)
				}
			}
		}
		var totalBudget float64
		for _, ad := range curr.Ads {
			totalBudget += ad.Budget
		}
		if totalBudget > 0 {
			rep.RegretOverBudget = rep.Regret / totalBudget
		}
		res.Trace = append(res.Trace, rep)
	}

	res.Ads = make([]AdFate, len(fateOrder))
	for i, name := range fateOrder {
		f := fates[name]
		if f.Departed == 0 {
			f.Spent = spent[name]
		}
		res.Ads[i] = *f
	}
	res.FinalEpoch = idx.Epoch()
	sampled, err := idx.SetsSampled()
	if err != nil {
		return nil, fmt.Errorf("sim: final sample count: %w", err)
	}
	res.TotalSetsSampled = sampled
	if bs != nil {
		res.CumulativeRegret = bs.cum
		st := bs.est.Snapshot()
		res.Estimator = &st
	}
	return res, nil
}
