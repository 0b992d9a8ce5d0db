package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detector"
)

func decodeBody(res *http.Response, out any) error {
	defer res.Body.Close()
	return json.NewDecoder(res.Body).Decode(out)
}

func replicaPair(t *testing.T) (primary, replica *httptest.Server, info *ReplicaInfo) {
	t.Helper()
	cfg := core.Config{Detector: detector.Config{Threshold: 0.05}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	contractSeed(t, p.System())

	ri := &ReplicaInfo{Primary: "http://primary.example", Ready: true, MaxLagRecords: 100}
	r, err := New(cfg, WithReplica(func() ReplicaInfo { return *ri }))
	if err != nil {
		t.Fatal(err)
	}
	contractSeed(t, r.System()) // identical state, as a converged follower would hold

	tsP := httptest.NewServer(p)
	tsR := httptest.NewServer(r)
	t.Cleanup(tsP.Close)
	t.Cleanup(tsR.Close)
	return tsP, tsR, ri
}

// A fresh replica serves read bodies byte-identical to the primary's,
// with the lag header as the only addition.
func TestReplicaFreshReadsByteIdentical(t *testing.T) {
	tsP, tsR, _ := replicaPair(t)
	// Every typed read endpoint; /v1/snapshot is excluded because its
	// record order is map-iteration order even on a single node.
	for _, path := range []string{
		"/v1/objects/1/aggregate",
		"/v1/objects/2/aggregate",
		"/v1/raters/3/trust",
		"/v1/malicious",
		"/v1/malicious?offset=0&limit=5",
		"/v1/stats",
		"/v1/stats?bounds=0.25,0.5,1",
	} {
		resP, err := tsP.Client().Get(tsP.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resR, err := tsR.Client().Get(tsR.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		bodyP, _ := io.ReadAll(resP.Body)
		bodyR, _ := io.ReadAll(resR.Body)
		resP.Body.Close()
		resR.Body.Close()
		if resP.StatusCode != resR.StatusCode {
			t.Fatalf("%s: status %d on primary, %d on replica", path, resP.StatusCode, resR.StatusCode)
		}
		if string(bodyP) != string(bodyR) {
			t.Fatalf("%s: replica body differs from primary\n--- primary\n%s--- replica\n%s", path, bodyP, bodyR)
		}
		if lag := resR.Header.Get(ReplicaLagHeader); lag != "records=0 seconds=0.000" {
			t.Fatalf("%s: replica lag header %q", path, lag)
		}
		if lag := resP.Header.Get(ReplicaLagHeader); lag != "" {
			t.Fatalf("%s: primary unexpectedly sent a lag header %q", path, lag)
		}
	}
}

// Past the staleness bound, every read becomes a typed 503; mutations
// are always a typed 421 naming the primary; /healthz stays exempt so
// orchestrators can still probe liveness.
func TestReplicaGateRefusals(t *testing.T) {
	_, tsR, ri := replicaPair(t)

	ri.LagRecords = 101 // one past MaxLagRecords
	res, err := tsR.Client().Get(tsR.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var env api.Error
	if err := decodeBody(res, &env); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusServiceUnavailable || env.Code != api.CodeReplicaStale {
		t.Fatalf("stale read: status %d code %q", res.StatusCode, env.Code)
	}
	if res.Header.Get(ReplicaLagHeader) == "" {
		t.Fatal("stale 503 dropped the lag header")
	}

	res, err = tsR.Client().Post(tsR.URL+"/v1/process", "application/json", strings.NewReader(`{"start":0,"end":30}`))
	if err != nil {
		t.Fatal(err)
	}
	env = api.Error{}
	if err := decodeBody(res, &env); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusMisdirectedRequest || env.Code != api.CodeNotPrimary {
		t.Fatalf("replica write: status %d code %q", res.StatusCode, env.Code)
	}
	if env.Primary != "http://primary.example" {
		t.Fatalf("not_primary envelope names %q", env.Primary)
	}

	res, err = tsR.Client().Get(tsR.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz on a stale replica: %d", res.StatusCode)
	}

	// Not yet bootstrapped: reads refuse even with zero recorded lag.
	ri.LagRecords, ri.Ready = 0, false
	res, err = tsR.Client().Get(tsR.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	env = api.Error{}
	if err := decodeBody(res, &env); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusServiceUnavailable || env.Code != api.CodeReplicaStale {
		t.Fatalf("unbootstrapped read: status %d code %q", res.StatusCode, env.Code)
	}
}
