package server_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	rtrace "dbpl/internal/telemetry/trace"
)

// TestStatsOpcodeEndToEnd drives real traffic through a real client and
// asserts the STATS snapshot accounts for it: per-opcode request counters
// and latency histograms, commit metrics, error-code counters, and the
// gauges — all decoded from one frame.
func TestStatsOpcodeEndToEnd(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	c := dial(t, h, nil)

	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("bob", emp("Bob", 2, "Lab"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(personT); err != nil {
		t.Fatal(err)
	}

	// Provoke one classified server-side error: GET with no type image is
	// a bad request, counted under its code.
	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := wire.WriteFrame(raw, 0, wire.OpGet); err != nil {
		t.Fatal(err)
	}
	if op, _, err := wire.ReadFrame(raw, 0); err != nil || op != wire.OpError {
		t.Fatalf("bare GET: op=%#x err=%v, want OpError", op, err)
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := snap.Counter(`dbpl_server_requests_total{op="PUT"}`); got != 2 {
		t.Errorf(`requests_total{op="PUT"} = %d, want 2`, got)
	}
	if got, _ := snap.Counter(`dbpl_server_requests_total{op="GET"}`); got < 2 {
		t.Errorf(`requests_total{op="GET"} = %d, want >= 2 (client GET + bare GET)`, got)
	}
	if hist, ok := snap.Histogram(`dbpl_server_request_seconds{op="PUT"}`); !ok || hist.Count != 2 {
		t.Errorf(`request_seconds{op="PUT"} count = %d, want 2 (every request timed)`, hist.Count)
	}
	if got, _ := snap.Counter(`dbpl_server_errors_total{code="bad-request"}`); got == 0 {
		t.Error("bad request was not counted under its error code")
	}
	commits, _ := snap.Counter("dbpl_server_commits_total")
	if commits < 2 {
		t.Errorf("commits_total = %d, want >= 2 (each Put is a commit group)", commits)
	}
	if hist, ok := snap.Histogram("dbpl_server_commit_seconds"); !ok || hist.Count != commits {
		t.Errorf("commit_seconds count = %d, want %d (every commit timed)", hist.Count, commits)
	}
	if hist, ok := snap.Histogram("dbpl_server_commit_group_ops"); !ok || hist.Sum < 2 {
		t.Errorf("commit_group_ops sum = %d, want >= 2 ops across groups", hist.Sum)
	}
	if got, _ := snap.Gauge("dbpl_server_roots"); got != 2 {
		t.Errorf("roots gauge = %d, want 2", got)
	}
	if got, _ := snap.Gauge("dbpl_server_sessions"); got < 1 {
		t.Errorf("sessions gauge = %d, want >= 1 (this very connection)", got)
	}
	if got, _ := snap.Gauge("dbpl_server_uptime_ns"); got <= 0 {
		t.Errorf("uptime gauge = %d, want > 0", got)
	}
	// STATS counts itself: the snapshot was taken during the STATS request,
	// so in-flight is at least 1 at capture time... except STATS bypasses
	// admission and never touches the in-flight gauge. What must hold is
	// that the STATS request itself shows up on the next snapshot.
	snap2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := snap2.Counter(`dbpl_server_requests_total{op="STATS"}`); got < 1 {
		t.Errorf(`requests_total{op="STATS"} = %d, want >= 1`, got)
	}
}

// TestSlowRequestsReachTraceRing: with sampling off and a negative
// threshold every request but the monitor class and PING is slow, so
// each lands in the trace ring as a root span alone, under the client's
// wire trace ID or a minted one, with the facts its reply settled: the
// peer, the reply's field bytes and its error code. A sampled slow
// request keeps its span tree and gains the same facts.
func TestSlowRequestsReachTraceRing(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "store.log"), nil,
		server.Config{SlowOpThreshold: -1})
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(personT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	// Bare frames carry no trace: the ring mints their IDs.
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for _, op := range []byte{wire.OpNames, wire.OpGet} {
		if err := wire.WriteFrame(nc, 0, op); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.ReadFrame(nc, 0); err != nil {
			t.Fatal(err)
		}
	}

	ds := h.srv.Traces()
	var ops []string
	for _, d := range ds {
		ops = append(ops, d.Op+"/"+d.Err)
		if d.ID == 0 || d.Session == "" {
			t.Errorf("%s entry has ID %#x, session %q: want both set", d.Op, d.ID, d.Session)
		}
		if len(d.Spans) != 1 || d.Spans[0].Name != d.Op || d.Spans[0].Parent != rtrace.NoSpan || d.Spans[0].Dur <= 0 {
			t.Errorf("%s entry spans = %+v, want its root span alone", d.Op, d.Spans)
		}
		if time.Since(d.Begin) > time.Minute {
			t.Errorf("%s entry began %v, not recently", d.Op, d.Begin)
		}
		switch d.Op + "/" + d.Err {
		case "PUT/":
			if d.Bytes != 0 {
				t.Errorf("PUT entry counts %d reply bytes, want 0", d.Bytes)
			}
		case "GET/", "NAMES/", "GET/bad-request":
			if d.Bytes == 0 {
				t.Errorf("%s/%s entry counts no reply bytes", d.Op, d.Err)
			}
		}
		if d.Op == "NAMES" || d.Err != "" {
			if d.Session != nc.LocalAddr().String() {
				t.Errorf("%s entry session %q, want the bare connection's %s", d.Op, d.Session, nc.LocalAddr())
			}
		}
	}
	// Newest first.
	if want := []string{"GET/bad-request", "NAMES/", "GET/", "PUT/"}; !slices.Equal(ops, want) {
		t.Fatalf("the ring holds %v, want %v", ops, want)
	}
	if got, err := c.Traces(); err != nil || len(got) != len(ds) || got[0].Session != ds[0].Session ||
		got[0].Bytes != ds[0].Bytes || got[0].Err != ds[0].Err {
		t.Errorf("TRACES = %+v, %v; want the ring %+v", got, err, ds)
	}

	hs := bootCfg(t, filepath.Join(t.TempDir(), "sampled.log"), nil,
		server.Config{SlowOpThreshold: -1, TraceSampleRate: 1})
	cs := dial(t, hs, nil)
	if err := cs.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(personT); err != nil {
		t.Fatal(err)
	}
	ds = hs.srv.Traces()
	if len(ds) != 2 || ds[0].Op != "GET" || ds[1].Op != "PUT" {
		t.Fatalf("the sampled ring holds %+v, want GET and PUT", ds)
	}
	for _, d := range ds {
		if len(d.Spans) < 2 || d.Session == "" || (d.Op == "GET") != (d.Bytes > 0) || d.Err != "" {
			t.Errorf("sampled slow %s entry = %+v: want its span tree, its session and its reply bytes", d.Op, d)
		}
	}
}

// TestHealthConsistentWithTelemetry is the tear-fix regression: HEALTH is
// now derived from one registry snapshot, so its fields must agree with
// the committed state — roots after a Put, a live session, real uptime.
func TestHealthConsistentWithTelemetry(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	c := dial(t, h, nil)

	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	hl, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if hl.Poisoned {
		t.Error("healthy server reports poisoned")
	}
	if hl.Roots != 1 {
		t.Errorf("Health.Roots = %d, want 1", hl.Roots)
	}
	if hl.Sessions < 1 {
		t.Errorf("Health.Sessions = %d, want >= 1", hl.Sessions)
	}
	if hl.Uptime <= 0 {
		t.Errorf("Health.Uptime = %v, want > 0", hl.Uptime)
	}
	if hl.InFlight < 0 {
		t.Errorf("Health.InFlight = %d, want >= 0", hl.InFlight)
	}
}

// TestOpsHandlerEndpoints exercises the HTTP side: /metrics speaks the
// Prometheus text format with the right content type, /traces is the
// ring as JSON, and the pprof index answers.
func TestOpsHandlerEndpoints(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "store.log"), nil,
		server.Config{SlowOpThreshold: -1})
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}

	web := httptest.NewServer(h.srv.OpsHandler())
	defer web.Close()

	code, ctype, body := httpGet(t, web.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ctype != telemetry.PromContentType {
		t.Errorf("/metrics content type %q, want %q", ctype, telemetry.PromContentType)
	}
	for _, want := range []string{
		"# TYPE dbpl_server_requests_total counter",
		`dbpl_server_requests_total{op="PUT"} 1`,
		"dbpl_server_request_seconds_bucket",
		"dbpl_server_inflight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, _, body = httpGet(t, web.URL+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var ds []rtrace.Data
	if err := json.Unmarshal([]byte(body), &ds); err != nil {
		t.Fatalf("/traces is not a JSON trace array: %v\n%s", err, body)
	}
	if len(ds) != 1 || ds[0].Op != "PUT" || ds[0].Session == "" {
		t.Errorf("/traces = %+v, want the slow PUT with its session", ds)
	}

	if code, _, _ := httpGet(t, web.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// docPath is an ops-endpoint path named in OBSERVABILITY.md: a row
// "`GET /path` on `-ops`" of the surfaces table or an item "- `/path` —"
// of the ops endpoint's list.
var docPath = regexp.MustCompile("(?m)(?:^\\| `GET (/\\S*)` on `-ops`|^- `(/\\S*)` —)")

// TestOpsEndpointMatchesDocs: every path docs/OBSERVABILITY.md lists for
// the ops endpoint answers 200, and the retired slow-op path is gone.
func TestOpsEndpointMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, m := range docPath.FindAllStringSubmatch(string(doc), -1) {
		paths = append(paths, m[1]+m[2])
	}
	for _, want := range []string{"/metrics", "/traces", "/debug/pprof/"} {
		if !slices.Contains(paths, want) {
			t.Fatalf("OBSERVABILITY.md lists %v for the ops endpoint, without %s", paths, want)
		}
	}
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	web := httptest.NewServer(h.srv.OpsHandler())
	defer web.Close()
	for _, p := range paths {
		if code, _, _ := httpGet(t, web.URL+p); code != http.StatusOK {
			t.Errorf("%s (OBSERVABILITY.md) answered %d, want 200", p, code)
		}
	}
	if code, _, _ := httpGet(t, web.URL+"/slowops"); code != http.StatusNotFound {
		t.Errorf("the retired /slowops answered %d, want 404", code)
	}
}

// TestMetricCatalogueMatchesRegistry: the series families OBSERVABILITY.md's
// catalogue lists are exactly those the registries of a running system
// hold — a primary over telemetry.InstrumentFS, its follower and a client
// with the follower as a replica — in both directions.
func TestMetricCatalogueMatchesRegistry(t *testing.T) {
	listed, _ := catalogue(t)
	live := bootLiveSystem(t).families()
	for _, name := range sortedKeys(live) {
		if !listed[name] {
			t.Errorf("%s is registered, but OBSERVABILITY.md's catalogue does not list it", name)
		}
	}
	for _, name := range sortedKeys(listed) {
		if !live[name] {
			t.Errorf("OBSERVABILITY.md's catalogue lists %s, which no registry holds", name)
		}
	}
}

// TestRetiredSeriesStayGone: no series OBSERVABILITY.md's "Retired series"
// table lists is in a running system's registries, STATS replies or
// /metrics; a STATS reply's JSON has exactly the keys the snapshot wire
// format names; and every dbpl_ series README.md, DESIGN.md and docs/*.md
// name in backticks is live or retired (a trailing * names a prefix of a
// live one).
func TestRetiredSeriesStayGone(t *testing.T) {
	listed, retired := catalogue(t)
	if len(retired) == 0 {
		t.Fatal(`OBSERVABILITY.md has no "Retired series" table`)
	}
	for name := range retired {
		if listed[name] {
			t.Errorf("OBSERVABILITY.md lists %s as both live and retired", name)
		}
	}
	sys := bootLiveSystem(t)
	gone := func(where string, names []string) {
		t.Helper()
		for _, name := range names {
			if base, _, _ := strings.Cut(name, "{"); retired[base] {
				t.Errorf("%s holds the retired %s", where, name)
			}
		}
	}
	for _, h := range []*harness{sys.p, sys.f} {
		var reply struct {
			Counters, Gauges []struct{ Name string }
			Histograms       []map[string]json.RawMessage
		}
		raw := rawStats(t, h)
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatal(err)
		}
		if keys := sortedKeys(top); !slices.Equal(keys, []string{"counters", "gauges", "histograms", "taken_at"}) {
			t.Errorf("STATS reply keys %v", keys)
		}
		var names []string
		for _, c := range append(reply.Counters, reply.Gauges...) {
			names = append(names, c.Name)
		}
		for _, hist := range reply.Histograms {
			if keys := sortedKeys(hist); !slices.Equal(keys, []string{"bounds", "counts", "name", "sum", "unit"}) {
				t.Errorf("STATS histogram %s has keys %v", hist["name"], keys)
			}
			var name string
			json.Unmarshal(hist["name"], &name)
			names = append(names, name)
		}
		gone("a STATS reply", names)

		web := httptest.NewServer(h.srv.OpsHandler())
		_, _, body := httpGet(t, web.URL+"/metrics")
		web.Close()
		var types []string
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				types = append(types, name)
			}
		}
		gone("/metrics", types)
	}
	live := sys.families()
	gone("a registry", sortedKeys(live))
	docs, err := filepath.Glob(filepath.Join("..", "..", "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{filepath.Join("..", "..", "README.md"), filepath.Join("..", "..", "DESIGN.md")}, docs...) {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		spans := strings.Split(string(src), "`")
		for i := 1; i < len(spans); i += 2 {
			for _, m := range docSeries.FindAllStringSubmatch(spans[i], -1) {
				name, prefix := m[1], m[2] == "*"
				if prefix && !slices.ContainsFunc(sortedKeys(live), func(f string) bool { return strings.HasPrefix(f, name) }) ||
					!prefix && !live[name] && !retired[name] {
					t.Errorf("%s names %s, which is neither a live series nor a retired one", filepath.Base(doc), m[0])
				}
			}
		}
	}
}

// docSeries matches a series name in a doc, with a trailing * when the
// name is a prefix.
var docSeries = regexp.MustCompile(`(dbpl_[a-z0-9_]+)(\*?)`)

// catalogue reads OBSERVABILITY.md's metric catalogue: the series
// families its tables list in their first column, and those its "Retired
// series" table lists.
func catalogue(t *testing.T) (listed, retired map[string]bool) {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, cat, ok := strings.Cut(string(doc), "\n## Metric catalogue\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no metric catalogue")
	}
	cat, _, _ = strings.Cut(cat, "\n## ")
	live, gone, _ := strings.Cut(cat, "\n### Retired series\n")
	firstColumn := func(tables string) map[string]bool {
		fams := map[string]bool{}
		for _, line := range strings.Split(tables, "\n") {
			if !strings.HasPrefix(line, "| `") {
				continue
			}
			cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
			for _, m := range docSeries.FindAllStringSubmatch(cells[1], -1) {
				fams[m[1]] = true
			}
		}
		return fams
	}
	return firstColumn(live), firstColumn(gone)
}

// liveSystem is a primary whose store is opened through
// telemetry.InstrumentFS, a follower of it, and a client with the
// follower as a replica.
type liveSystem struct {
	p, f *harness
	c    *client.Client
}

// bootLiveSystem boots a liveSystem and replicates one write through it.
func bootLiveSystem(t *testing.T) liveSystem {
	t.Helper()
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	path := filepath.Join(dir, "primary.log")
	st, err := intrinsic.OpenFS(telemetry.InstrumentFS(iofault.OS{}, reg), path)
	if err != nil {
		t.Fatal(err)
	}
	p := bootCfg(t, path, st, server.Config{Registry: reg})
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, replCfg(p.addr))
	c := dial(t, p, &client.Options{Replicas: []string{f.addr}})
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	return liveSystem{p: p, f: f, c: c}
}

// families are the series of the system's three registries with their
// label sets stripped.
func (l liveSystem) families() map[string]bool {
	fams := map[string]bool{}
	for _, reg := range []*telemetry.Registry{l.p.reg, l.f.reg, l.c.Telemetry()} {
		snap := reg.Snapshot()
		var names []string
		for _, c := range snap.Counters {
			names = append(names, c.Name)
		}
		for _, g := range snap.Gauges {
			names = append(names, g.Name)
		}
		for _, h := range snap.Histograms {
			names = append(names, h.Name)
		}
		for _, name := range names {
			base, _, _ := strings.Cut(name, "{")
			fams[base] = true
		}
	}
	return fams
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// rawStats sends STATS to h on a raw connection and returns the reply's
// JSON as the server wrote it.
func rawStats(t *testing.T, h *harness) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(conn, 0, wire.OpStats); err != nil {
		t.Fatal(err)
	}
	op, fields, err := wire.ReadFrame(conn, 0)
	if err != nil || op != wire.OpOK || len(fields) != 1 {
		t.Fatalf("STATS answered %s with %d fields, %v", wire.OpName(op), len(fields), err)
	}
	return fields[0]
}

// httpGet fetches url, returning the status, content type and body.
func httpGet(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}
