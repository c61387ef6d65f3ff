// BenchmarkServerOptimize lives outside the root package
// (internal/server imports flexflow, so an in-package benchmark would
// be an import cycle) and measures the strategy server end to end over
// a real HTTP round trip. "cold" forces a fresh search on every
// request with no_cache; "cached" answers every repeat of an identical
// request from the content-addressed strategy cache. The gap between
// the two is what the cache buys a repeat caller. "inline-cached"
// repeats a paper-scale nmt graph sent inline (a ~57KB body) on 4 GPUs:
// the server answers it from the digest of the body, without decoding
// the graph or fingerprinting the problem again. "inline-cached-varied"
// sends the same problem with a different timeout_ms on every repeat: a
// deadline is not part of the fingerprint, so each repeat is a strategy
// cache hit whose bytes match no earlier body. It pays the decode path
// plus the digest index's read, hash and insert, and gets nothing back
// from the index.
package flexflow_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"flexflow"
	"flexflow/internal/server"
)

func benchServerPost(b *testing.B, ts *httptest.Server, body []byte) (cached bool) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Cached     bool            `json:"cached"`
		BestCostNS int64           `json:"best_cost_ns"`
		Strategy   json.RawMessage `json:"strategy"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		b.Fatal(err)
	}
	if out.BestCostNS <= 0 || len(out.Strategy) == 0 {
		b.Fatalf("degenerate response: %s", raw)
	}
	return out.Cached
}

func BenchmarkServerOptimize(b *testing.B) {
	req := func(noCache bool) []byte {
		raw, err := json.Marshal(map[string]any{
			"model": "lenet", "scale": 16, "gpus": 2,
			"options":  map[string]any{"max_iters": 60, "seed": 7, "timeout_ms": 60000},
			"no_cache": noCache,
		})
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}

	b.Run("cold", func(b *testing.B) {
		ts := httptest.NewServer(server.New(server.Options{}))
		defer ts.Close()
		body := req(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if benchServerPost(b, ts, body) {
				b.Fatal("no_cache request answered from the cache")
			}
		}
	})

	cached := func(b *testing.B, body []byte) {
		ts := httptest.NewServer(server.New(server.Options{}))
		defer ts.Close()
		benchServerPost(b, ts, body) // prime the cache with the one real search
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !benchServerPost(b, ts, body) {
				b.Fatal("identical repeat request re-ran the search")
			}
		}
	}
	b.Run("cached", func(b *testing.B) { cached(b, req(false)) })

	// inline is the paper-scale nmt request on 4 GPUs up to its
	// timeout_ms value, which withTimeout appends.
	inline := func(b *testing.B) []byte {
		g, err := flexflow.Model("nmt")
		if err != nil {
			b.Fatal(err)
		}
		gdata, err := flexflow.ExportGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString(`{"gpus":4,"graph":`)
		if err := json.Compact(&buf, gdata); err != nil {
			b.Fatal(err)
		}
		buf.WriteString(`,"options":{"max_iters":20,"seed":7,"timeout_ms":`)
		return buf.Bytes()
	}
	withTimeout := func(dst, prefix []byte, ms int) []byte {
		dst = append(append(dst[:0], prefix...), strconv.Itoa(ms)...)
		return append(dst, "}}"...)
	}
	b.Run("inline-cached", func(b *testing.B) {
		cached(b, withTimeout(nil, inline(b), 60000))
	})
	b.Run("inline-cached-varied", func(b *testing.B) {
		prefix := inline(b)
		ts := httptest.NewServer(server.New(server.Options{}))
		defer ts.Close()
		body := withTimeout(nil, prefix, 60000)
		benchServerPost(b, ts, body) // prime the cache with the one real search
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body = withTimeout(body, prefix, 60001+i)
			if !benchServerPost(b, ts, body) {
				b.Fatal("repeat with another deadline re-ran the search")
			}
		}
	})
}
