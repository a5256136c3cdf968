package socialads_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// structureRules are the patterns that must not come back: each names the
// source files it reads (globs; "dir/..." reads the tree under dir), a
// regexp over their text, comments included, and what to do instead.
// Test files are read only where a rule says so.
var structureRules = []struct {
	name    string
	files   []string
	tests   bool
	pattern string
	msg     string
}{{
	// Every coordinator fan-out is one gather (or the lockstep mutate, or
	// SetsSampled's loop of info calls), which is where rounds are timed
	// and traced; a typed call would bypass both.
	name:    "coordinator reaches shards only through gather and mutate",
	files:   []string{"internal/shard/coordinator.go", "internal/shard/backend.go"},
	pattern: `cl\.(Pilot|Ensure|Start|Commit|Credit|Grow|Gains|End|AddAd|RemoveAd|SyncEstimates)\(`,
	msg:     "send the op through gather or mutate",
}, {
	// A run is the unit of failover: a run a replica loses is re-run by the
	// coordinator under a fresh run id, so the ReplicaSet keeps no run
	// state — no per-run op log, no adoption replay.
	name:    "the replica set keeps no run state",
	files:   []string{"internal/shard/*.go"},
	pattern: `replicaRun|adopt\(|runOf\(`,
	msg:     "re-run a lost run (Coordinator.Allocate); do not replay it",
}, {
	// An ad's CPE feeds only revenue, which the coordinator computes, so
	// the bandit estimator lives on the serving host alone: no op carries
	// it to a shard and no shard keeps it. (Client.SyncEstimates survives
	// as a deprecated no-op until bench/ladder.go stops spelling it out.)
	name:    "the shard package holds no bandit state",
	files:   []string{"internal/shard/*.go"},
	pattern: `opSyncEstimates|/shard/estimates|"repro/internal/bandit"`,
	msg:     "the bandit estimator lives on the serving host alone",
}, {
	// POST /allocate/batch fans its items out over the engine's own
	// Allocate, so both engines treat a racing mutation and a cancelled
	// request alike; neither engine nor the coordinator has a batch of its
	// own (core.AllocateBatch stays the library's).
	name:    "a batch is a fan-out of Allocate",
	files:   []string{"internal/shard/*.go", "internal/serve/*.go"},
	pattern: `func \([^)]*\) AllocateBatch\(|\.AllocateBatch\(`,
	msg:     "fan batch items out over engine.Allocate (serve/batch.go)",
}, {
	// rrset.BuildInverted returns an index with its cover join (and its
	// bitmap, when dense) already built; nothing in core prepares one, not
	// even a test.
	name:    "core builds no cover join of its own",
	files:   []string{"internal/core/..."},
	tests:   true,
	pattern: `PrepareCover\w*\(`,
	msg:     "rrset.BuildInverted already joins the index",
}, {
	// Every CSR offset — a family's set offsets, an index's row offsets,
	// the graph's outStart/inStart — is a uint32 with a checked 2^32−1
	// limit; there is no wide form to fall back to.
	name:    "CSR offsets stay 32-bit",
	files:   []string{"internal/rrset/family.go", "internal/graph/graph.go"},
	pattern: `\[\](int|int64)\b`,
	msg:     "offsets are []uint32 (rrset.checkArena, graph.Builder.Build check the limit)",
}, {
	// A collection's per-set state is one bit of Collection.covered, and a
	// shard's delta capture is one stamp per node that derives each
	// decrement from the owner's coverage after the walk: no per-set bool
	// flags and no per-node output positions come back.
	name:    "the cover walk keeps one bit per set",
	files:   []string{"internal/rrset/*.go"},
	pattern: `covered +\[\]bool|dpos`,
	msg:     "covered sets are bits of Collection.covered; deltaSink derives decrements from cov",
}, {
	// RR and RRC sets come from one deterministic block stream
	// (Sampler.SampleRangeRRInto / SampleRangeRRCInto); TIM draws from it
	// too, so no salted-chunk batch sampler comes back beside it.
	name:    "RR sets come from one stream",
	files:   []string{"internal/rrset/*.go", "internal/tim/*.go"},
	pattern: `SampleBatch|batchStarts|batchChunks|salt`,
	msg:     "draw RR/RRC sets from the block stream (rrset/stream.go)",
}, {
	// The soft-coverage collection commits through one kernel, the sparse
	// walk (sparseCommitSegs); the bitset kernel serves the hard
	// Collection only, so no bitset weighted commit comes back.
	name:    "the soft-coverage collection runs one kernel",
	files:   []string{"internal/rrset/*.go"},
	pattern: `bitsetCommitFrom|commitWord|func \(c \*WeightedCollection\) UseKernel`,
	msg:     "WeightedCollection commits through sparseCommitSegs only",
}, {
	// The bitset sweep and lazy counts serve CoverNode only: every other
	// walk is the eager sparse one, reached through materialize, so no
	// bitset delta walk and no second retired-set mask come back.
	name:    "the fast cover paths only cover: the bitset sweep",
	files:   []string{"internal/rrset/*.go"},
	pattern: `bitsetDeltaFrom|c\.mask\b|^\s+mask\s+\[\]uint64`,
	msg:     "the bitset sweep sweeps Collection.covered and serves CoverNode only",
}, {
	// Lazy collections open over id rows only (an index over LazyMinNodes
	// nodes or more is never joined), so the lazy walks read ids through
	// idsOf and never decode a cover-join record or read a raw row.
	name:    "the fast cover paths only cover: lazy counts",
	files:   []string{"internal/rrset/lazy.go"},
	pattern: `joinSizeBits|joinSizeMask|joinSpill|\.row\(`,
	msg:     "lazy counts read id rows only",
}, {
	// HTTPClient holds its own connections and writes its requests itself:
	// one shard transport, so no net/http client may creep back in beside
	// it.
	name:    "the shard package builds no net/http client",
	files:   []string{"internal/shard/*.go"},
	pattern: `http\.Transport|http\.Client\{`,
	msg:     "shard.HTTPClient is the one shard transport",
}, {
	// It reads an HTTP reply with http.ReadResponse, so no hand-written
	// reply parser may come back either.
	name:    "the shard package parses no HTTP reply by hand",
	files:   []string{"internal/shard/*.go"},
	pattern: `Transfer-Encoding|func \(cn \*httpConn\) readHead|errMalformed`,
	msg:     "HTTPClient reads replies with http.ReadResponse",
}}

// sourceFiles lists the Go files a rule's globs name, test files only when
// tests is set. "dir/..." walks the tree under dir, skipping dot-directories
// such as .git and .bench_build.
func sourceFiles(t *testing.T, globs []string, tests bool) []string {
	t.Helper()
	var files []string
	for _, g := range globs {
		matches, err := filepath.Glob(g)
		if dir, ok := strings.CutSuffix(g, "/..."); ok {
			matches = nil
			err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && p != dir && strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				if !d.IsDir() && strings.HasSuffix(p, ".go") {
					matches = append(matches, p)
				}
				return nil
			})
		}
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s: no files (%v)", g, err)
		}
		for _, p := range matches {
			if tests || !strings.HasSuffix(p, "_test.go") {
				files = append(files, p)
			}
		}
	}
	return files
}

// TestStructure fails when a pattern the design removed comes back: each
// rule's regexp over its files' text, and a return that reads a variable
// beside the call that fills it.
func TestStructure(t *testing.T) {
	for _, r := range structureRules {
		re := regexp.MustCompile(r.pattern)
		for _, p := range sourceFiles(t, r.files, r.tests) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if re.MatchString(line) {
					t.Errorf("%s: %s:%d: %s\n\t%s", r.name, p, i+1, strings.TrimSpace(line), r.msg)
				}
			}
		}
	}
	// `return out, f(&out)` returns out only if out is read after f runs, an
	// order the Go spec leaves unspecified: assign first, then return.
	fset := token.NewFileSet()
	for _, p := range sourceFiles(t, []string{"./..."}, false) {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) > 1 {
				if x, ok := ret.Results[0].(*ast.Ident); ok && addressesAny(ret.Results[1:], x.Name) {
					t.Errorf("no reply returned beside the call that fills it: %s returns %s beside &%s\n\tassign the call's result first, then return it",
						fset.Position(ret.Pos()), x.Name, x.Name)
				}
			}
			return true
		})
	}
}

// addressesAny reports whether any of exprs takes the address of name or of
// a field or element of it.
func addressesAny(exprs []ast.Expr, name string) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
				if id, ok := root(u.X).(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// root returns the expression an operand of & is part of: x for x.f, x[i]
// and (x).
func root(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return root(x.X)
	case *ast.IndexExpr:
		return root(x.X)
	case *ast.ParenExpr:
		return root(x.X)
	}
	return e
}
