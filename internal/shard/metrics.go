// RPC-level telemetry for the shard fabric, recorded coordinator-side: an
// instrumented Client decorator meters every RPC (count, latency, outcome)
// per operation and shard slot over either transport, and the coordinator
// times its scatter-gather rounds per phase. One Metrics is shared by all
// of a cluster's clients so the host exposes a single family; internal/
// serve wires it into the adserver registry in ConnectShards.

package shard

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Metrics is the shard-fabric telemetry surface: per-RPC counters and
// latency histograms (recorded by InstrumentClient) plus coordinator
// scatter-round timings (recorded when Config.Metrics is set).
type Metrics struct {
	rpcs           *obs.CounterVec   // op, shard, outcome
	rpcSeconds     *obs.HistogramVec // op, shard
	roundSeconds   *obs.HistogramVec // phase
	retries        *obs.CounterVec   // op, reason (RetryClient)
	failovers      *obs.CounterVec   // range (ReplicaSet)
	replicaHealthy *obs.GaugeVec     // range, replica (ReplicaSet)
}

// NewMetrics registers the fabric metrics on r under
// prefix_shard_rpcs_total, prefix_shard_rpc_seconds,
// prefix_coordinator_round_seconds, prefix_shard_rpc_retries_total,
// prefix_shard_failovers_total, and prefix_shard_replica_healthy.
func NewMetrics(r *obs.Registry, prefix string) *Metrics {
	return &Metrics{
		rpcs: r.CounterVec(prefix+"_shard_rpcs_total",
			"Shard RPCs by operation, shard slot, and outcome (ok or error).",
			"op", "shard", "outcome"),
		rpcSeconds: r.HistogramVec(prefix+"_shard_rpc_seconds",
			"Shard RPC round-trip latency in seconds by operation and shard slot.",
			obs.DefBuckets, "op", "shard"),
		roundSeconds: r.HistogramVec(prefix+"_coordinator_round_seconds",
			"Coordinator scatter-gather round wall time in seconds by phase (pilot, start, commit, grow, credit, gains).",
			obs.DefBuckets, "phase"),
		retries: r.CounterVec(prefix+"_shard_rpc_retries_total",
			"Shard RPC retries by operation and reason (timeout, draining, server, connection).",
			"op", "reason"),
		failovers: r.CounterVec(prefix+"_shard_failovers_total",
			"Replica failovers by partition range: an info, pilot or start a replica failed and another served, or a run op a replica failed, whose run the coordinator re-runs.",
			"range"),
		replicaHealthy: r.GaugeVec(prefix+"_shard_replica_healthy",
			"Per-replica health (1 healthy, 0 unhealthy) by partition range and replica index.",
			"range", "replica"),
	}
}

// record books one finished RPC.
func (m *Metrics) record(op, shard string, start time.Time, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	m.rpcs.With(op, shard, outcome).Inc()
	m.rpcSeconds.With(op, shard).Observe(time.Since(start).Seconds())
}

// InstrumentClient wraps cl so every RPC against shard slot `shard` is
// metered into m. Transport-blind: wrap a LocalClient or an HTTPClient the
// same way. A nil m returns cl unchanged.
func InstrumentClient(cl Client, shard int, m *Metrics) Client {
	if m == nil {
		return cl
	}
	slot := strconv.Itoa(shard)
	c := new(intercepted)
	c.wrap(cl, func(ctx context.Context, rc rpcCall) error {
		start := time.Now()
		err := rc.invoke(ctx)
		m.record(rc.op.String(), slot, start, err)
		return err
	})
	return c
}
