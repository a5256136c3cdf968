// Tests for the op table and the clients written over one roundTrip: the
// table covers Client's method set exactly, every op crosses every decorator
// and a replica set once and unchanged under the table's label and deadline
// class — down to a client with a roundTrip and to one with only typed
// methods — and the documented label list is the table's.

package shard

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/obs"
)

// TestOpTableCoversClient pins the table to the interface: one row per
// Client method, named as the method with its first letter lowered. The
// deprecated SyncEstimates alone has no row: it sends nothing. A new
// method without a row (or a row without a method) fails here.
func TestOpTableCoversClient(t *testing.T) {
	methods := map[string]bool{}
	ct := reflect.TypeOf((*Client)(nil)).Elem()
	for i := 0; i < ct.NumMethod(); i++ {
		name := []rune(ct.Method(i).Name)
		name[0] = unicode.ToLower(name[0])
		methods[string(name)] = true
	}
	delete(methods, "syncEstimates")
	if len(methods) != int(numOps) {
		t.Fatalf("Client has %d methods, the op table %d rows", len(methods), numOps)
	}
	for o := op(0); o < numOps; o++ {
		if !methods[o.String()] {
			t.Errorf("op table row %d is named %q: no such Client method (or a second row for one)", o, o)
		}
		delete(methods, o.String())
	}
}

// recordingClient is the Client under the decorators: it notes each call's
// op, request and remaining deadline, and answers with a reply that names
// the op.
type recordingClient struct {
	ops   []op
	reqs  []any
	until []time.Duration // time left on each call's context; 0 = no deadline
	trips int             // calls that came through a recordingTripper
}

// recordingTripper is a recordingClient behind a roundTrip: the bottom that
// call must pass straight through to. Its typed methods are the recorder's
// own, which count no trip, so a call dispatched by method shows.
type recordingTripper struct {
	Client
	rec *recordingClient
}

func (c *recordingTripper) roundTrip(ctx context.Context, o op, req, reply any) error {
	c.rec.trips++
	return call(ctx, c.rec, o, req, reply)
}

func (c *recordingClient) note(ctx context.Context, o op, req any) int64 {
	left := time.Duration(0)
	if d, ok := ctx.Deadline(); ok {
		left = time.Until(d)
	}
	c.ops, c.reqs, c.until = append(c.ops, o), append(c.reqs, req), append(c.until, left)
	return 100 + int64(o)
}

func (c *recordingClient) Info(ctx context.Context) (ShardInfo, error) {
	return ShardInfo{SetsSampled: c.note(ctx, opInfo, nil)}, nil
}
func (c *recordingClient) Pilot(ctx context.Context, req PilotRequest) (PilotReply, error) {
	return PilotReply{Fresh: c.note(ctx, opPilot, req)}, nil
}
func (c *recordingClient) Ensure(ctx context.Context, req EnsureRequest) (EnsureReply, error) {
	return EnsureReply{Fresh: c.note(ctx, opEnsure, req)}, nil
}
func (c *recordingClient) Start(ctx context.Context, req StartRequest) (StartReply, error) {
	return StartReply{Fresh: c.note(ctx, opStart, req)}, nil
}
func (c *recordingClient) Commit(ctx context.Context, req CommitRequest) (CommitReply, error) {
	return CommitReply{Covered: int(c.note(ctx, opCommit, req))}, nil
}
func (c *recordingClient) Credit(ctx context.Context, req CreditRequest) (CommitReply, error) {
	return CommitReply{Covered: int(c.note(ctx, opCredit, req))}, nil
}
func (c *recordingClient) Grow(ctx context.Context, req GrowRequest) (GrowReply, error) {
	return GrowReply{Fresh: c.note(ctx, opGrow, req)}, nil
}
func (c *recordingClient) Gains(ctx context.Context, req GainsRequest) (GainsReply, error) {
	return GainsReply{Cov: []int32{int32(c.note(ctx, opGains, req))}}, nil
}
func (c *recordingClient) End(ctx context.Context, runID string) error {
	c.note(ctx, opEnd, runID)
	return nil
}
func (c *recordingClient) AddAd(ctx context.Context, req AddAdRequest) (MutateReply, error) {
	return MutateReply{Epoch: uint64(c.note(ctx, opAddAd, req))}, nil
}
func (c *recordingClient) RemoveAd(ctx context.Context, req RemoveAdRequest) (MutateReply, error) {
	return MutateReply{Epoch: uint64(c.note(ctx, opRemoveAd, req))}, nil
}
func (*recordingClient) SyncEstimates(context.Context, SyncEstimatesRequest) error { return nil }

// TestDecoratorsForwardEveryOp drives each of the eleven ops through each
// decorator and through a one-replica ReplicaSet, over a bottom client with
// a roundTrip and over one with typed methods only (the dispatcher's path),
// and requires: the underlying client called exactly once, with the request
// it was given, its reply handed back; the metric, the span and the fault
// plan all knowing the op by its table name; and the retry layer's
// per-attempt deadline being SamplingTimeout exactly where the table says.
func TestDecoratorsForwardEveryOp(t *testing.T) {
	ctx := context.Background()
	calls := [numOps]struct {
		req   any // what the underlying client must see
		reply any // what the caller must get back (nil: the op has no reply)
		call  func(ctx context.Context, cl Client, req any) (any, error)
	}{
		opInfo: {nil, ShardInfo{SetsSampled: 100 + int64(opInfo)},
			func(ctx context.Context, cl Client, _ any) (any, error) { return cl.Info(ctx) }},
		opPilot: {PilotRequest{Epoch: 3, Ads: []int{1, 2}, Want: 7}, PilotReply{Fresh: 100 + int64(opPilot)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Pilot(ctx, req.(PilotRequest)) }},
		opEnsure: {EnsureRequest{Epoch: 3, Ad: 1, Want: 9}, EnsureReply{Fresh: 100 + int64(opEnsure)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Ensure(ctx, req.(EnsureRequest)) }},
		opStart: {StartRequest{RunID: "r", Epoch: 3, Ads: []int{4}, Thetas: []int{64}}, StartReply{Fresh: 100 + int64(opStart)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Start(ctx, req.(StartRequest)) }},
		opCommit: {CommitRequest{RunID: "r", Ad: 4, Node: 17, Seq: 1}, CommitReply{Covered: 100 + int(opCommit)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Commit(ctx, req.(CommitRequest)) }},
		opCredit: {CreditRequest{RunID: "r", Ad: 4, Node: 17, FromGlobal: 64, Seq: 3}, CommitReply{Covered: 100 + int(opCredit)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Credit(ctx, req.(CreditRequest)) }},
		opGrow: {GrowRequest{RunID: "r", Ad: 4, FromGlobal: 64, ToGlobal: 128, Seq: 2}, GrowReply{Fresh: 100 + int64(opGrow)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Grow(ctx, req.(GrowRequest)) }},
		opGains: {GainsRequest{RunID: "r", Ad: 4, Nodes: []int32{17, 18}}, GainsReply{Cov: []int32{100 + int32(opGains)}},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.Gains(ctx, req.(GainsRequest)) }},
		opEnd: {"r", nil,
			func(ctx context.Context, cl Client, req any) (any, error) { return nil, cl.End(ctx, req.(string)) }},
		opAddAd: {AddAdRequest{Epoch: 3, Base: 6}, MutateReply{Epoch: 100 + uint64(opAddAd)},
			func(ctx context.Context, cl Client, req any) (any, error) { return cl.AddAd(ctx, req.(AddAdRequest)) }},
		opRemoveAd: {RemoveAdRequest{Epoch: 3, Pos: 2}, MutateReply{Epoch: 100 + uint64(opRemoveAd)},
			func(ctx context.Context, cl Client, req any) (any, error) {
				return cl.RemoveAd(ctx, req.(RemoveAdRequest))
			}},
	}
	const fast, sampling = time.Hour, 10 * time.Hour

	// Every op twice: over a bottom client with typed methods only, then
	// (bottom 1) over one with a roundTrip.
	for i := 0; i < 2*int(numOps); i++ {
		o, bottom := op(i)%numOps, i/int(numOps)
		name, c := o.String(), calls[o]
		// through sends the op through one layer over a fresh recorder and
		// checks what every layer owes: one call, same request, the reply
		// back.
		through := func(layer string, ctx context.Context, wrap func(Client) Client) *recordingClient {
			t.Helper()
			rec := &recordingClient{}
			var cl Client = rec
			if bottom == 1 {
				layer += " over a roundTrip"
				cl = &recordingTripper{Client: rec, rec: rec}
			}
			top := wrap(cl)
			*rec = recordingClient{} // forget what building the layer sent
			got, err := c.call(ctx, top, c.req)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, layer, err)
			}
			if len(rec.ops) != 1 || rec.ops[0] != o || !reflect.DeepEqual(rec.reqs[0], c.req) {
				t.Fatalf("%s over %s: underlying client saw ops %v with %+v, want one %s with %+v", name, layer, rec.ops, rec.reqs, name, c.req)
			}
			if rec.trips != bottom {
				t.Fatalf("%s over %s: %d calls came through the bottom's roundTrip, want %d", name, layer, rec.trips, bottom)
			}
			if !reflect.DeepEqual(got, c.reply) {
				t.Fatalf("%s over %s: reply %+v, want %+v", name, layer, got, c.reply)
			}
			return rec
		}

		m := NewMetrics(obs.NewRegistry(), "test")
		through("instrument", ctx, func(cl Client) Client { return InstrumentClient(cl, 3, m) })
		if got := m.rpcs.With(name, "3", "ok").Value(); got != 1 {
			t.Errorf("%s: rpcs_total{op=%q,shard=3,outcome=ok} = %d, want 1", name, name, got)
		}

		tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
		tctx, root := tr.StartSpan(obs.WithTrace(ctx, "trace-"+name), "test")
		rec := through("retry", tctx, func(cl Client) Client {
			return NewRetryClient(cl, RetryPolicy{Timeout: fast, SamplingTimeout: sampling}, nil)
		})
		root.End()
		td, _ := tr.Get("trace-" + name)
		if len(td.Spans) != 2 || (td.Spans[0].Name != "rpc."+name && td.Spans[1].Name != "rpc."+name) {
			t.Errorf("%s: retry layer recorded spans %+v, want one rpc.%s under the root", name, td.Spans, name)
		}
		want := fast
		if opTable[o].sampling {
			want = sampling
		}
		if left := rec.until[0]; left > want || left < want-time.Minute {
			t.Errorf("%s: attempt ran with %v left, want the %v deadline (table says sampling=%v)", name, left, want, opTable[o].sampling)
		}

		var fc *FaultClient
		through("fault", ctx, func(cl Client) Client {
			// A zero delay fires and calls through; every other op's rule
			// stays armed and silent.
			fc = NewFaultClient(cl, 1, FaultRule{Op: name, Kind: FaultDelay}, FaultRule{Op: op((o + 1) % numOps).String(), Kind: FaultError})
			return fc
		})
		if fired := fc.Fired(); fired[0] != 1 || fired[1] != 0 {
			t.Errorf("%s: fault rules fired %v, want [1 0]", name, fired)
		}

		through("replica set", ctx, func(cl Client) Client {
			rs, err := NewReplicaSet(ctx, []Client{cl}, ReplicaSetConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// The run ops need a run the set has opened.
			if _, err := rs.Start(ctx, calls[opStart].req.(StartRequest)); err != nil {
				t.Fatal(err)
			}
			return rs
		})
	}
}

// TestFaultClientRejectsUnknownOp pins plan validation: a rule naming an op
// that does not exist would never fire and script a fault-free run.
func TestFaultClientRejectsUnknownOp(t *testing.T) {
	NewFaultClient(nil, 1, FaultRule{Op: "*"}, FaultRule{Op: "commit"})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"comit"`) {
			t.Fatalf("NewFaultClient accepted a rule for op \"comit\" (recovered %q)", msg)
		}
	}()
	NewFaultClient(nil, 1, FaultRule{Op: "comit", Kind: FaultError})
}

// TestObservabilityDocListsEveryOp reads the adserver_shard_rpcs_total row
// of docs/OBSERVABILITY.md and requires every op-table name among the `op`
// values it lists.
func TestObservabilityDocListsEveryOp(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "| `adserver_shard_rpcs_total`") {
			row = line
		}
	}
	if row == "" {
		t.Fatal("docs/OBSERVABILITY.md has no adserver_shard_rpcs_total row")
	}
	for o := op(0); o < numOps; o++ {
		if !strings.Contains(row, "`"+o.String()+"`") {
			t.Errorf("docs/OBSERVABILITY.md: the adserver_shard_rpcs_total row does not list op %q", o)
		}
	}
}
