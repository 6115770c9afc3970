package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// /debug/flight serves the slow-op ring beside the trees, in both formats,
// and the trees' own format is what it was.
func TestDebugFlightServesSlowOps(t *testing.T) {
	rec := obs.New(obs.WithSampleRate(0))
	_, failed := rec.StartRoot(context.Background(), obs.LayerTxn, "end")
	failed.SetTxn(7)
	failed.End(errors.New("aborted"))
	_, next := rec.StartRoot(context.Background(), obs.LayerTxn, "end") // forced by the failure
	next.End(nil)
	srv := httptest.NewServer(debugMux(rec, nil, nil, 0, 1, "test"))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	text := get("/debug/flight")
	for _, want := range []string{"1 retained tree(s)", "1 slow or failed op(s)", "-trace-sample 0", `txn end txn=7`, `err="aborted"`} {
		if !strings.Contains(text, want) {
			t.Errorf("text flight dump missing %q:\n%s", want, text)
		}
	}
	var out struct {
		Trees   []*obs.SpanData `json:"trees"`
		SlowOps []obs.SlowOp    `json:"slow_ops"`
	}
	if err := json.Unmarshal([]byte(get("/debug/flight?format=json")), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Trees) != 1 || out.Trees[0].Layer != "txn" || out.Trees[0].Err != "" {
		t.Errorf("trees = %+v, want the one forced after the failure", out.Trees)
	}
	if len(out.SlowOps) != 1 || out.SlowOps[0].Txn != 7 || out.SlowOps[0].Err != "aborted" {
		t.Errorf("slow ops = %+v", out.SlowOps)
	}
}
