package main

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cmap"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestPipelinedGetsFeedProbeDepth: served answers every GET through
// the map's GetBatch, never its Get, so the paper's probe-depth series
// must fill from pipelined GETs alone — in the map's histogram and in
// the registry that STATS and /metrics encode. The test wires the same
// stack main does: a wire.Server over the backend adapter over an
// instrumented DurableMap.
func TestPipelinedGetsFeedProbeDepth(t *testing.T) {
	dm := repro.NewDurableMetrics()
	m, err := repro.OpenOf[string, []byte](t.TempDir(),
		repro.HasherFor[string](), repro.CodecFor[string](), bytesCodec,
		repro.WithShards(4), repro.WithBuckets(256), repro.WithSeed(9),
		repro.WithWALSync(false), repro.WithDurableMetrics(dm))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	mapMx := cmap.NewMetrics()
	m.Map().SetMetrics(mapMx)

	srv := wire.NewServer(&backend{m: m}, wire.Options{})
	registerMetrics(srv.Registry(), m, dm, mapMx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 2000 // ~31 keys in the 1-in-64 sample
	for i := 0; i < n; i++ {
		if err := c.QueueSet(fmt.Appendf(nil, "key-%d", i), fmt.Appendf(nil, "val-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.RecvSet(); err != nil {
			t.Fatalf("SET %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if err := c.QueueGet(fmt.Appendf(nil, "key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := c.RecvGet()
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("GET %d = %q ok %v err %v", i, v, ok, err)
		}
	}

	var s obs.HistSnapshot
	mapMx.ProbeDepth.Snapshot(&s)
	if s.Count == 0 {
		t.Fatalf("%d pipelined GETs recorded no probe depth", n)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nrepro_map_probe_depth_count %d\n", s.Count); !strings.Contains(stats, want) {
		t.Errorf("STATS lacks %q", strings.TrimSpace(want))
	}
	if strings.Contains(stats, "repro_map_get_seconds") {
		t.Error("STATS still exports repro_map_get_seconds, a series served's GetBatch-only reads never fill")
	}
}
