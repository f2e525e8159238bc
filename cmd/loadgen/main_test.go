package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
)

// mustParse parses args as the command line would, failing the test on
// a usage error.
func mustParse(t *testing.T, args ...string) config {
	t.Helper()
	var stderr bytes.Buffer
	cfg, err := parseArgs(args, &stderr)
	if err != nil {
		t.Fatalf("parseArgs(%q): %v\n%s", args, err, stderr.String())
	}
	return cfg
}

// TestVerifiedInProcess runs the verified workload for every key kind,
// with batched gets and a small map that resizes mid-run one entry per
// write, so the oracle checks reads across the migration hand-off.
func TestVerifiedInProcess(t *testing.T) {
	for _, kind := range []string{"uint64", "string", "struct"} {
		t.Run(kind, func(t *testing.T) {
			cfg := mustParse(t, "-keytype", kind, "-ops", "20000", "-workers", "3", "-keys", "3000",
				"-shards", "4", "-buckets", "16", "-mget", "8", "-grow", "0.75", "-migrate-batch", "1", "-verify")
			var out bytes.Buffer
			res, err := run(cfg, newBackend(cfg), &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if res.ops != 20000 || res.live == 0 {
				t.Fatalf("ops %d, live %d", res.ops, res.live)
			}
			if !strings.Contains(out.String(), "resizes completed") {
				t.Fatalf("the map never resized:\n%s", out.String())
			}
		})
	}
}

// TestVerifiedNet runs the verified workload over the wire against an
// in-process server fronting a durable map.
func TestVerifiedNet(t *testing.T) {
	addr := startServer(t)
	jsonPath := filepath.Join(t.TempDir(), "summary.json")
	cfg := mustParse(t, "-net", addr, "-ops", "6000", "-workers", "3", "-keys", "900",
		"-read", "0.6", "-delete", "0.1", "-mget", "4", "-verify", "-json", jsonPath)
	res, err := run(cfg, newBackend(cfg), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.ops != 6000 || res.live == 0 || res.lenDelta != 0 {
		t.Fatalf("ops %d, live %d, len delta %d", res.ops, res.live, res.lenDelta)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var summary map[string]any
	if err := json.Unmarshal(data, &summary); err != nil {
		t.Fatal(err)
	}
	if ops, _ := summary["ops_per_sec"].(float64); ops <= 0 {
		t.Fatalf("ops_per_sec %v in %s", summary["ops_per_sec"], data)
	}
}

// TestOpsIsTheOpCount pins that exactly -ops operations reach the
// backend, whether or not -workers divides it, and that each backend
// call is one latency sample.
func TestOpsIsTheOpCount(t *testing.T) {
	for _, args := range [][]string{
		{"-ops", "10", "-workers", "3"},
		{"-ops", "2", "-workers", "4"},
		{"-ops", "1001", "-workers", "4", "-mget", "5", "-read", "0.9"},
		{"-ops", "50", "-workers", "2", "-rate", "100000", "-verify"},
	} {
		cfg := mustParse(t, append(args, "-buckets", "64")...)
		be := &countingBackend{backend: newBackend(cfg)}
		res, err := run(cfg, be, io.Discard)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if be.ops != cfg.ops || res.ops != cfg.ops || res.lat.Count != be.calls {
			t.Fatalf("%q: backend saw %d ops in %d calls; result %d ops, %d samples",
				args, be.ops, be.calls, res.ops, res.lat.Count)
		}
	}
}

// TestDroppedWritesFailVerification is the oracle's own check: a
// backend that acknowledges every 7th write without storing it must
// fail the run.
func TestDroppedWritesFailVerification(t *testing.T) {
	cfg := mustParse(t, "-ops", "20000", "-workers", "2", "-keys", "2000", "-buckets", "64", "-verify")
	_, err := run(cfg, &droppingBackend{backend: newBackend(cfg)}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "VERIFY FAILED") {
		t.Fatalf("dropped writes passed verification: %v", err)
	}
}

// TestRejectsFlagsThatDoNotApply pins that no flag is parsed and then
// ignored: every in-process map flag is a usage error with -net.
func TestRejectsFlagsThatDoNotApply(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"}, {"-buckets", "64"}, {"-slots", "2"}, {"-d", "2"}, {"-stash", "8"},
		{"-grow", "0.8"}, {"-migrate-batch", "8"}, {"-drain"}, {"-keytype", "string"},
	} {
		if _, err := parseArgs(append([]string{"-net", "127.0.0.1:1"}, args...), io.Discard); err == nil {
			t.Errorf("%q accepted with -net", args)
		}
		mustParse(t, args...)
	}
	for _, args := range [][]string{
		{"-keytype", "all"}, {"-read", "0.8", "-delete", "0.3"}, {"-mget", "-1"},
		{"-migrate-batch", "0"}, {"-conns", "4"}, {"-preset", "read-heavy"}, {"-wal", "x"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	mustParse(t, "-net", "127.0.0.1:1", "-workers", "2", "-json", "x.json", "-rate", "100",
		"-mget", "4", "-verify", "-read", "0.5", "-delete", "0.1", "-keys", "10", "-seed", "3", "-ops", "5")
}

// startServer serves a durable map in a temporary directory over the
// wire protocol on a loopback port, for the life of the test.
func startServer(t *testing.T) string {
	t.Helper()
	bytesCodec := repro.Codec[[]byte]{
		Append: func(dst []byte, v []byte) []byte { return append(dst, v...) },
		Decode: func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil },
	}
	dm, err := repro.OpenOf[string, []byte](t.TempDir(),
		repro.HasherFor[string](), repro.CodecFor[string](), bytesCodec,
		repro.WithShards(4), repro.WithBuckets(256), repro.WithWALSync(false))
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(durableBackend{dm}, wire.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Error(err)
		}
		<-done
		if err := dm.Close(); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String()
}

// durableBackend adapts the durable map to the wire server, as
// cmd/served does.
type durableBackend struct {
	m *repro.DurableMap[string, []byte]
}

func (b durableBackend) Get(key []byte) ([]byte, bool) { return b.m.Get(string(key)) }

func (b durableBackend) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	sk := make([]string, len(keys))
	for i, k := range keys {
		sk[i] = string(k)
	}
	return b.m.GetBatch(sk, vals, found)
}

func (b durableBackend) Set(key, val []byte) error {
	return b.m.Put(string(key), append([]byte(nil), val...))
}

func (b durableBackend) Delete(key []byte) (bool, error) { return b.m.Delete(string(key)) }

// countingBackend counts the operations and calls its sessions carry
// during the workers' run (batched reads count one op per key).
type countingBackend struct {
	backend
	sessions []*countingSession
	ops      int
	calls    uint64
}

func (b *countingBackend) session(i int) (session, error) {
	s, err := b.backend.session(i)
	cs := &countingSession{session: s}
	b.sessions = append(b.sessions, cs)
	return cs, err
}

func (b *countingBackend) quiesce() int {
	for _, s := range b.sessions {
		b.ops += s.ops
		b.calls += s.calls
	}
	return b.backend.quiesce()
}

type countingSession struct {
	session
	ops   int
	calls uint64
}

func (s *countingSession) get(id uint64) (uint64, bool, error) {
	s.ops++
	s.calls++
	return s.session.get(id)
}

func (s *countingSession) getBatch(ids, vals []uint64, found []bool) error {
	s.ops += len(ids)
	s.calls++
	return s.session.getBatch(ids, vals, found)
}

func (s *countingSession) put(id, val uint64) (bool, error) {
	s.ops++
	s.calls++
	return s.session.put(id, val)
}

func (s *countingSession) del(id uint64) (bool, error) {
	s.ops++
	s.calls++
	return s.session.del(id)
}

// droppingBackend acknowledges every 7th put of each session without
// storing it.
type droppingBackend struct{ backend }

func (b *droppingBackend) session(i int) (session, error) {
	s, err := b.backend.session(i)
	return &droppingSession{session: s}, err
}

type droppingSession struct {
	session
	puts int
}

func (s *droppingSession) put(id, val uint64) (bool, error) {
	if s.puts++; s.puts%7 == 0 {
		return true, nil
	}
	return s.session.put(id, val)
}
