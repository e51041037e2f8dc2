package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/yield"
)

// TestYieldHonorsCancellation: a /v1/yield request whose context is
// already cancelled gets no 200 on a server without workers — fixed-n and
// adaptive alike — and reports the cancellation instead of a result.
func TestYieldHonorsCancellation(t *testing.T) {
	s, cl := newTestServer(t)
	req := adaptiveYieldReq(t, cl) // warms the bench and inserts the plan
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eps := range []float64{0, req.Eps} {
		req.Eps = eps
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq := httptest.NewRequest(http.MethodPost, "/v1/yield", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, hreq)
		if rec.Code == http.StatusOK {
			t.Fatalf("eps=%v: cancelled request answered 200: %s", eps, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Fatalf("eps=%v: response %d %q does not report the cancellation", eps, rec.Code, rec.Body)
		}
	}
}

// miscountingWorker serves the real worker handler but adds one phantom
// chip to the first bin of every yield-pass tally it returns — an honest
// frame with a dishonest count, which only the per-range count check can
// tell from a real partial.
func miscountingWorker(t *testing.T) string {
	t.Helper()
	inner := New(Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != yieldPassPath {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		out := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			var tb yield.TallyBuf
			resp, err := decodeYieldPassResponse(out, &tb)
			if err != nil {
				t.Errorf("worker frame did not decode: %v", err)
				return
			}
			for i := range resp.Tallies {
				resp.Tallies[i].FirstZero[0]++
				if resp.Tallies[i].FirstTuned != nil {
					resp.Tallies[i].FirstTuned[0]++
				}
			}
			out = appendYieldPassResponse(nil, resp)
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(out)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestShardedRejectsMiscountedTallies: a worker whose yield partials cover
// more chips than their range must never merge. Every such attempt is
// classified corrupt and its range retried, so fixed-n and adaptive
// results stay byte-identical to the in-process server.
func TestShardedRejectsMiscountedTallies(t *testing.T) {
	_, plain := newTestServer(t)
	adaptive := adaptiveYieldReq(t, plain)
	fixed := adaptive
	fixed.Eps, fixed.Conf, fixed.EvalSamples = 0, 0, 400
	workers := []string{startWorkers(t, 1)[0], miscountingWorker(t)}
	s := New(Config{Workers: workers, Shards: 7, Dispatch: fastDispatch()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sharded := NewClient(ts.URL)
	for _, req := range []YieldRequest{fixed, adaptive} {
		want, err := plain.Yield(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Yield(req)
		if err != nil {
			t.Fatalf("eps=%v: %v", req.Eps, err)
		}
		wj, _ := json.Marshal(want.Results)
		gj, _ := json.Marshal(got.Results)
		if string(gj) != string(wj) {
			t.Fatalf("eps=%v: results diverge from in-process:\n got %s\nwant %s", req.Eps, gj, wj)
		}
	}
	if s.Pool().C.Corrupt.Load() == 0 {
		t.Fatal("miscounted partials were not recorded as corrupt attempts")
	}
}
