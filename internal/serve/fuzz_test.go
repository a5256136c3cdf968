package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzBody posts every fuzzed body to path on one single-node handler and
// requires a 200, or a 4xx whose body is a JSON error — never a 5xx or a
// panic. The server's limits keep whatever instance a body names tiny, so
// an input that builds one costs milliseconds.
func fuzzBody(f *testing.F, path string, seeds ...string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	h := New(Options{MaxScale: 0.002, MaxTheta: 2000, MaxEntries: 2, MaxAds: 4, Logf: func(string, ...any) {}}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			return
		}
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzAllocateBatchBody fuzzes POST /allocate/batch's decoder and request
// shaping.
func FuzzAllocateBatchBody(f *testing.F) {
	fuzzBody(f, "/allocate/batch",
		`{"dataset":"fig1","seed":1,"scale":0.001,"requests":[{},{"ads":[1,3]},{"budgets":[2,2,2,2],"cpes":[1,2,1,2]},{"lambda":0.1,"kappa":2}]}`,
		`{"dataset":"flixster","seed":2,"scale":0.001,"requests":[{"opts":{"eps":0.5,"minTheta":100,"maxTheta":400}},{"residual":true}]}`,
		`{"dataset":"fig1","seed":1,"scale":0.001,"requests":[{"ads":[9]},{"budgets":[1]},{"opts":{"candidateDepth":3}}]}`,
		`{"dataset":"fig1","seed":1,"scale":0.001,"requests":[]}`,
		`{"dataset":"dblp","scale":-1,"requests":[{}]}`,
		`{"requests":[{"bandit":true}]}`,
		`[`,
	)
}

// FuzzFeedbackBody fuzzes POST /feedback's decoder and event validation.
func FuzzFeedbackBody(f *testing.F) {
	fuzzBody(f, "/feedback",
		`{"dataset":"fig1","seed":1,"scale":0.001,"events":[{"ad":"a","impressions":400,"clicks":380},{"ad":"b","impressions":10,"clicks":0}]}`,
		`{"dataset":"fig1","seed":1,"scale":0.001,"policy":"thompson","reset":true,"events":[{"ad":"c","impressions":5,"clicks":5}]}`,
		`{"dataset":"fig1","seed":1,"scale":0.001,"events":[{"ad":"a","impressions":1,"clicks":2}]}`,
		`{"dataset":"fig1","seed":1,"scale":0.001,"events":[{"ad":"zz","impressions":-1,"clicks":0}]}`,
		`{"dataset":"flixster","seed":3,"scale":0.001,"events":[]}`,
		`{"dataset":"fig1","scale":1}`,
		`{`,
	)
}
