package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"waso/internal/core"
	"waso/internal/service"
	"waso/internal/store"
)

// pathGraphBody is an 8-node path with distinct interests and taus —
// small enough to read, rich enough that mutations change solve results.
const pathGraphBody = `{"id":"mut","graph":{"nodes":8,` +
	`"interest":[1,1.25,1.5,1.75,2,2.25,2.5,2.75],` +
	`"edges":[{"src":0,"dst":1,"tau":1},{"src":1,"dst":2,"tau":1.5},` +
	`{"src":2,"dst":3,"tau":1},{"src":3,"dst":4,"tau":0.5},` +
	`{"src":4,"dst":5,"tau":1},{"src":5,"dst":6,"tau":1.25},` +
	`{"src":6,"dst":7,"tau":1}]}}`

func TestMutateHTTP(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs", pathGraphBody); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, body)
	}

	// Happy path: a batch of all four op kinds bumps the version to 1 and
	// reports the new shape.
	status, body := doJSON(t, "PATCH", ts.URL+"/v1/graphs/mut",
		`{"ops":[{"op":"set_interest","u":2,"eta":9},`+
			`{"op":"add_edge","u":0,"v":7,"tau":0.5},`+
			`{"op":"set_tau","u":0,"v":1,"tau":2},`+
			`{"op":"del_edge","u":3,"v":4}]}`)
	if status != http.StatusOK {
		t.Fatalf("patch: %d %s", status, body)
	}
	var info service.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Edges != 7 || info.ResidentBytes <= 0 {
		t.Errorf("patched info = %+v, want version 1, 7 edges, positive resident_bytes", info)
	}

	// Optimistic concurrency: the current version passes, a stale one 409s.
	if status, body := doJSON(t, "PATCH", ts.URL+"/v1/graphs/mut",
		`{"if_version":1,"ops":[{"op":"set_interest","u":0,"eta":3}]}`); status != http.StatusOK {
		t.Fatalf("conditional patch: %d %s", status, body)
	}
	if status, body := doJSON(t, "PATCH", ts.URL+"/v1/graphs/mut",
		`{"if_version":1,"ops":[{"op":"set_interest","u":0,"eta":4}]}`); status != http.StatusConflict {
		t.Errorf("stale if_version: %d %s, want 409", status, body)
	}

	// Client errors: unknown graph, empty/missing ops, an invalid op, a
	// negative precondition, and an unknown envelope field.
	for _, tc := range []struct {
		name, url, body string
		want            int
	}{
		{"unknown graph", "/v1/graphs/nope", `{"ops":[{"op":"set_interest","u":0,"eta":1}]}`, http.StatusNotFound},
		{"missing ops", "/v1/graphs/mut", `{}`, http.StatusBadRequest},
		{"empty ops", "/v1/graphs/mut", `{"ops":[]}`, http.StatusBadRequest},
		{"bad op", "/v1/graphs/mut", `{"ops":[{"op":"del_edge","u":0,"v":5}]}`, http.StatusBadRequest},
		{"negative if_version", "/v1/graphs/mut", `{"if_version":-1,"ops":[{"op":"set_interest","u":0,"eta":1}]}`, http.StatusBadRequest},
		{"unknown field", "/v1/graphs/mut", `{"operations":[]}`, http.StatusBadRequest},
	} {
		if status, body := doJSON(t, "PATCH", ts.URL+tc.url, tc.body); status != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, status, body, tc.want)
		}
	}

	// Failed PATCHes must not have advanced the version.
	status, body = doJSON(t, "GET", ts.URL+"/v1/graphs", "")
	if status != http.StatusOK {
		t.Fatalf("list: %d %s", status, body)
	}
	var list struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Version != 2 {
		t.Errorf("list after failures = %+v, want single graph at version 2", list.Graphs)
	}
}

// storeHealth decodes /healthz's store section.
func storeHealth(t *testing.T, url string) service.StoreHealth {
	t.Helper()
	status, body := doJSON(t, "GET", url+"/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d %s", status, body)
	}
	var h struct {
		Store *service.StoreHealth `json:"store"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	if h.Store == nil {
		t.Fatalf("healthz body %s: missing store section", body)
	}
	return *h.Store
}

func TestHealthzStoreSection(t *testing.T) {
	ts := newTestServer(t)
	if sh := storeHealth(t, ts.URL); sh.Durable || sh.ReadOnly || sh.WALBytes != 0 {
		t.Errorf("memory-only store health = %+v, want all-zero", sh)
	}
}

// solveReport runs one deterministic CBASND solve and returns the fields a
// bit-identity comparison needs.
func solveReport(t *testing.T, url string) core.Report {
	t.Helper()
	status, body := doJSON(t, "POST", url+"/v1/solve",
		`{"graph":"mut","algo":"cbasnd","request":{"k":4,"samples":16,"starts":2,"seed":11}}`)
	if status != http.StatusOK {
		t.Fatalf("solve: %d %s", status, body)
	}
	var got struct {
		Report core.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	return got.Report
}

// TestDurableRecoveryHTTP is the end-to-end crash-recovery path: a durable
// server takes an upload and PATCHes, dies without any orderly shutdown,
// and a fresh process over the same data dir serves bit-identical solves.
func TestDurableRecoveryHTTP(t *testing.T) {
	dir := t.TempDir()

	st, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{DefaultTimeout: 30 * time.Second, Store: st})
	ts := httptest.NewServer(newMux(svc, 64<<20, 30*time.Second, false, nil))

	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs", pathGraphBody); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, body)
	}
	for i, ops := range []string{
		`{"ops":[{"op":"set_interest","u":2,"eta":9},{"op":"add_edge","u":0,"v":7,"tau":0.5}]}`,
		`{"ops":[{"op":"set_tau","u":0,"v":1,"tau":2}]}`,
		`{"ops":[{"op":"del_edge","u":3,"v":4},{"op":"set_interest","u":5,"eta":0.25}]}`,
	} {
		if status, body := doJSON(t, "PATCH", ts.URL+"/v1/graphs/mut", ops); status != http.StatusOK {
			t.Fatalf("patch %d: %d %s", i, status, body)
		}
	}
	if sh := storeHealth(t, ts.URL); !sh.Durable || sh.ReadOnly {
		t.Errorf("durable store health = %+v, want durable and writable", sh)
	}
	want := solveReport(t, ts.URL)

	// "Crash": drop the serving stack without snapshotting or flushing
	// anything beyond what the store already wrote. Closing the store only
	// closes file handles — it must not write.
	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: reopen the dir, recover, serve.
	st2, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc2 := service.New(service.Config{DefaultTimeout: 30 * time.Second, Store: st2})
	recovered, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newMux(svc2, 64<<20, 30*time.Second, false, nil))
	t.Cleanup(func() {
		ts2.Close()
		svc2.Close()
		st2.Close()
	})

	if len(recovered) != 1 || recovered[0].ID != "mut" || recovered[0].Version != 3 {
		t.Fatalf("recovered = %+v, want graph \"mut\" at version 3", recovered)
	}
	got := solveReport(t, ts2.URL)
	if got.Best.Willingness != want.Best.Willingness || !got.Best.Equal(want.Best) ||
		got.SamplesDrawn != want.SamplesDrawn {
		t.Errorf("recovered solve %+v != pre-crash solve %+v", got.Best, want.Best)
	}

	// Recovery is visible on /metrics, and the recovered graph keeps
	// accepting conditional writes at its recovered version.
	status, body := doJSON(t, "GET", ts2.URL+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, line := range []string{
		"waso_store_recovery_graphs_total 1",
		"waso_store_durable 1",
	} {
		if !strings.Contains(string(body), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if status, body := doJSON(t, "PATCH", ts2.URL+"/v1/graphs/mut",
		`{"if_version":3,"ops":[{"op":"set_interest","u":1,"eta":5}]}`); status != http.StatusOK {
		t.Errorf("post-recovery patch: %d %s", status, body)
	}
}

// TestNegativeTauHTTP: a negative tightness is refused with 400 naming the
// edge, on upload and on PATCH, and a refused PATCH appends nothing to the
// WAL or the graph version.
func TestNegativeTauHTTP(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{DefaultTimeout: 30 * time.Second, Store: st})
	ts := httptest.NewServer(newMux(svc, 64<<20, 30*time.Second, false, nil))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		st.Close()
	})

	status, body := doJSON(t, "POST", ts.URL+"/v1/graphs",
		`{"id":"neg","graph":{"nodes":3,"edges":[{"src":0,"dst":1,"tau":1},{"src":1,"dst":2,"tau_out":0.5,"tau_in":-0.25}]}}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "AddArc(2,1) with negative tightness") {
		t.Errorf("negative-tau upload: %d %s, want 400 naming AddArc(2,1)", status, body)
	}

	if status, body := doJSON(t, "POST", ts.URL+"/v1/graphs", pathGraphBody); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, body)
	}
	walBefore := storeHealth(t, ts.URL).WALBytes
	for _, tc := range []struct{ name, ops, edge string }{
		{"add_edge", `{"ops":[{"op":"add_edge","u":0,"v":7,"tau_out":1,"tau_in":-1}]}`, "{0,7}"},
		{"set_tau", `{"ops":[{"op":"set_interest","u":2,"eta":9},{"op":"set_tau","u":2,"v":1,"tau":-0.5}]}`, "{2,1}"},
	} {
		status, body := doJSON(t, "PATCH", ts.URL+"/v1/graphs/mut", tc.ops)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "negative tightness on edge "+tc.edge) {
			t.Errorf("%s: %d %s, want 400 naming edge %s", tc.name, status, body, tc.edge)
		}
	}
	if got := storeHealth(t, ts.URL).WALBytes; got != walBefore {
		t.Errorf("WAL grew from %d to %d bytes on refused PATCHes", walBefore, got)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/graphs", "")
	if status != http.StatusOK || !strings.Contains(string(body), `"version":0`) {
		t.Errorf("graph list after refused PATCHes: %d %s, want version 0", status, body)
	}
}
