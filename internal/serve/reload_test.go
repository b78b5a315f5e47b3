package serve

import (
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/shard"
)

// TestCheckpointHotReloadEndToEnd drives the full -ckpt-watch sequence
// halk-serve runs, against a live server: a newer checkpoint is
// verified, published as a new serving view, the sharded snapshot
// refreshed and the freshness status updated — old cached answers
// become unreachable. A corrupt candidate afterwards is rejected: the
// failure counter increments and the server keeps answering from the
// snapshot it already had.
func TestCheckpointHotReloadEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	status := ckpt.NewStatus()

	s, m, ds, ts := newTestServer(t, func(c *Config) {
		c.Metrics = reg
		c.Ckpt = status
	})
	ranker, err := m.NewShardedRanker(shard.Options{Shards: 2})
	if err != nil {
		t.Fatalf("NewShardedRanker: %v", err)
	}
	_ = s // routes already mounted; the ranker here stands in for halk-serve's wiring
	// SetLoaded before Register, as halk-serve does: the loaded_info
	// identity labels are captured at registration time.
	status.SetLoaded("initial.ckpt", "FB237", 61, 100, m.EntityVersion())
	status.Register(reg)

	req := queryRequest{Structure: "2p", Seed: 5, K: 5}
	first, code := postQuery(t, ts, req)
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first query: code=%d cached=%v", code, first.Cached)
	}
	again, _ := postQuery(t, ts, req)
	if !again.Cached {
		t.Fatal("repeat query not served from cache")
	}

	// A "newer" checkpoint: same config and identity, perturbed entity
	// table, written through the atomic verified writer.
	donor, _ := testHalkModel(61)
	ent := donor.Params().Get("entity")
	for i := range ent.Data {
		ent.Data[i] += 0.37 * math.Sin(float64(i))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "next.ckpt")
	if err := donor.WriteCheckpointFile(path, "FB237", 61); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}

	verBefore, snapBefore := m.EntityVersion(), ranker.SnapshotVersion()
	info, err := m.ReloadFromFile(path, "FB237", 61)
	if err != nil {
		t.Fatalf("ReloadFromFile: %v", err)
	}
	if m.EntityVersion() <= verBefore {
		t.Fatal("entity version did not advance on reload")
	}
	if err := ranker.Refresh(); err != nil {
		t.Fatalf("ranker.Refresh after reload: %v", err)
	}
	if ranker.SnapshotVersion() <= snapBefore {
		t.Fatal("sharded snapshot version did not advance on refresh")
	}
	status.SetLoaded(path, "FB237", 61, info.Step, m.EntityVersion())

	// The cache key namespace moved with the entity version: the same
	// query must be re-ranked, not served from the stale entry.
	post, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("post-reload query: code=%d", code)
	}
	if post.Cached {
		t.Fatal("post-reload query served from the pre-reload cache")
	}

	st := getStats(t, ts)
	if st.Checkpoint == nil {
		t.Fatal("stats missing checkpoint section")
	}
	if st.Checkpoint.Path != path || st.Checkpoint.Reloads != 1 || st.Checkpoint.Failures != 0 {
		t.Fatalf("checkpoint stats = %+v, want path=%s reloads=1 failures=0", st.Checkpoint, path)
	}

	// Corrupt candidate: truncate the file mid-payload. The reload must
	// fail without touching the live parameters; the serving layer keeps
	// answering (now from cache — same version as before the attempt).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	verBefore = m.EntityVersion()
	if _, err := m.ReloadFromFile(torn, "FB237", 61); err == nil || !ckpt.IsCorrupt(err) {
		t.Fatalf("torn reload: err=%v, want corruption", err)
	}
	status.ReloadFailed()
	if m.EntityVersion() != verBefore {
		t.Fatal("failed reload changed the entity version")
	}
	after, code := postQuery(t, ts, req)
	if code != http.StatusOK || !after.Cached {
		t.Fatalf("query after failed reload: code=%d cached=%v (old snapshot must keep serving)", code, after.Cached)
	}
	st = getStats(t, ts)
	if st.Checkpoint.Failures != 1 || st.Checkpoint.Reloads != 1 {
		t.Fatalf("checkpoint stats after failure = %+v, want reloads=1 failures=1", st.Checkpoint)
	}

	// The failure is also visible on /metrics for alerting.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		"halk_ckpt_reload_failures_total 1",
		"halk_ckpt_reloads_total 1",
		"halk_ckpt_loaded_step",
		`halk_ckpt_loaded_info{dataset="FB237",seed="61"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	_ = ds
}
