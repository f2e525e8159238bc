package wire

// The STATS reply is the Prometheus text exposition of the server's
// registry: every Counters instrument under its repro_server_* name,
// plus whatever series a caller adds to Registry(). External scrapers
// parse it by series name, so the names and the values a fixed op
// sequence leaves behind are pinned here.

import (
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// counterSeries maps each Counters field to the series that exposes
// it; histograms are checked through their _count series.
var counterSeries = map[string]string{
	"ConnsAccepted": "repro_server_conns_accepted_total",
	"ConnsActive":   "repro_server_conns_active",
	"FramesIn":      "repro_server_frames_in_total",
	"FramesOut":     "repro_server_frames_out_total",
	"BytesIn":       "repro_server_bytes_in_total",
	"BytesOut":      "repro_server_bytes_out_total",
	"Gets":          "repro_server_gets_total",
	"GetMisses":     "repro_server_get_misses_total",
	"Sets":          "repro_server_sets_total",
	"Dels":          "repro_server_dels_total",
	"DelMisses":     "repro_server_del_misses_total",
	"MGets":         "repro_server_mgets_total",
	"MGetKeys":      "repro_server_mget_keys_total",
	"StatsOps":      "repro_server_stats_total",
	"ErrDecode":     "repro_server_err_decode_total",
	"ErrTooBig":     "repro_server_err_too_big_total",
	"ErrSet":        "repro_server_err_set_total",
	"ErrDel":        "repro_server_err_del_total",
	"GetNanos":      "repro_server_get_seconds_count",
	"SetNanos":      "repro_server_set_seconds_count",
	"DelNanos":      "repro_server_del_seconds_count",
	"MGetNanos":     "repro_server_mget_seconds_count",
	"ConnNanos":     "repro_server_conn_seconds_count",
	"DrainNanos":    "repro_server_drain_seconds_count",
	"BatchSizes":    "repro_server_batch_size_count",
}

// parseExposition splits Prometheus text into its sample lines, keyed
// by series (name plus labels), in order.
func parseExposition(t *testing.T, text string) (names []string, vals map[string]string) {
	t.Helper()
	vals = make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			names = append(names, line)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		names = append(names, line[:i])
		vals[line[:i]] = line[i+1:]
	}
	return names, vals
}

func TestStatsServesRegistry(t *testing.T) {
	srv, addr := startServer(t, newMemBackend(), Options{MaxFrameBytes: 1 << 10})
	extra := srv.Registry().Counter("repro_test_extra_total", "a caller-added series", new(obs.Counter))
	extra.Add(7)

	// A frame over the size guard on its own connection: answered with
	// ERR and closed, so reading to EOF means it has been counted.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, FrameHeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x3F
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(raw); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	c := dialT(t, addr)
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Get([]byte("k"))
	c.Get([]byte("absent"))
	if _, err := c.MGet([][]byte{[]byte("k"), []byte("absent")}, make([][]byte, 2), make([]bool, 2)); err != nil {
		t.Fatal(err)
	}
	c.Delete([]byte("k"))
	if present, err := c.Delete([]byte("k")); err != nil || present {
		t.Fatalf("second DEL = %v, %v; want a miss", present, err)
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// The body is the registry's exposition and nothing else: the same
	// lines in the same order as a fresh AppendProm (values move — the
	// STATS reply itself bumps bytes_out — so only series are compared).
	names, vals := parseExposition(t, text)
	wantNames, _ := parseExposition(t, string(srv.Registry().AppendProm(nil)))
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("STATS body is not the registry exposition.\ngot:\n%s\nwant series:\n%s", text, strings.Join(wantNames, "\n"))
	}

	ct := reflect.TypeOf(Counters{})
	for i := 0; i < ct.NumField(); i++ {
		field := ct.Field(i).Name
		series, ok := counterSeries[field]
		if !ok {
			t.Errorf("Counters.%s has no pinned series name", field)
			continue
		}
		if _, ok := vals[series]; !ok {
			t.Errorf("Counters.%s: series %s missing from STATS", field, series)
		}
	}
	if len(counterSeries) != ct.NumField() {
		t.Errorf("counterSeries pins %d series for %d Counters fields", len(counterSeries), ct.NumField())
	}

	// Values the op sequence fixes. Connection lifetime figures race
	// with the closed connection's teardown, so they are only required
	// to be present (above).
	for series, want := range map[string]string{
		"repro_server_conns_accepted_total": "2",
		"repro_server_sets_total":           "1",
		"repro_server_gets_total":           "2",
		"repro_server_get_misses_total":     "2",
		"repro_server_mgets_total":          "1",
		"repro_server_mget_keys_total":      "2",
		"repro_server_dels_total":           "2",
		"repro_server_del_misses_total":     "1",
		"repro_server_stats_total":          "1",
		"repro_server_err_too_big_total":    "1",
		"repro_server_err_decode_total":     "0",
		"repro_server_err_set_total":        "0",
		"repro_server_err_del_total":        "0",
		"repro_server_get_seconds_count":    "2",
		"repro_server_set_seconds_count":    "1",
		"repro_server_del_seconds_count":    "2",
		"repro_server_mget_seconds_count":   "1",
		"repro_server_batch_size_count":     "3",
		"repro_server_drain_seconds_count":  "0",
		"repro_test_extra_total":            "7",
	} {
		if got := vals[series]; got != want {
			t.Errorf("%s = %q, want %s", series, got, want)
		}
	}
	if up := vals["repro_server_uptime_seconds"]; up == "" || up == "0" {
		t.Errorf("repro_server_uptime_seconds = %q, want a positive gauge", up)
	}
}

// TestAppendTextGolden pins the STATS sample lines for a deterministic
// Counters state: every series name and the value it encodes, in
// exposition order. The HELP/TYPE framing is pinned by the obs
// registry golden. The uptime value depends on the clock, so its line
// is checked by TestAppendTextUptimeUnit instead.
func TestAppendTextGolden(t *testing.T) {
	var c Counters
	c.ConnsAccepted.Add(3)
	c.ConnsActive.Add(2)
	c.FramesIn.Add(10)
	c.FramesOut.Add(9)
	c.BytesIn.Add(512)
	c.BytesOut.Add(256)
	c.Gets.Add(4)
	c.GetMisses.Add(1)
	c.Sets.Add(2)
	c.Dels.Add(1)
	c.MGets.Add(1)
	c.MGetKeys.Add(3)
	c.StatsOps.Add(1)
	c.noteBatch(1)
	c.noteBatch(3)
	c.noteBatch(3)
	c.noteBatch(0) // not a batch: ignored
	// Values below subCount record exactly, so the quantile lines are
	// deterministic.
	c.SetNanos.Record(17)
	c.SetNanos.Record(17)
	c.DrainNanos.Record(5)

	r := obs.NewRegistry()
	c.register(r, time.Now())
	var samples []string
	for _, line := range strings.Split(strings.TrimSuffix(string(r.AppendProm(nil)), "\n"), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "repro_server_uptime_seconds ") {
			continue
		}
		samples = append(samples, line)
	}
	got := strings.Join(samples, "\n") + "\n"
	want := strings.Join([]string{
		`repro_server_batch_size{quantile="0.5"} 3`,
		`repro_server_batch_size{quantile="0.99"} 3`,
		`repro_server_batch_size{quantile="0.999"} 3`,
		"repro_server_batch_size_sum 7",
		"repro_server_batch_size_count 3",
		"repro_server_bytes_in_total 512",
		"repro_server_bytes_out_total 256",
		`repro_server_conn_seconds{quantile="0.5"} 0`,
		`repro_server_conn_seconds{quantile="0.99"} 0`,
		`repro_server_conn_seconds{quantile="0.999"} 0`,
		"repro_server_conn_seconds_sum 0",
		"repro_server_conn_seconds_count 0",
		"repro_server_conns_accepted_total 3",
		"repro_server_conns_active 2",
		"repro_server_del_misses_total 0",
		`repro_server_del_seconds{quantile="0.5"} 0`,
		`repro_server_del_seconds{quantile="0.99"} 0`,
		`repro_server_del_seconds{quantile="0.999"} 0`,
		"repro_server_del_seconds_sum 0",
		"repro_server_del_seconds_count 0",
		"repro_server_dels_total 1",
		`repro_server_drain_seconds{quantile="0.5"} 5e-09`,
		`repro_server_drain_seconds{quantile="0.99"} 5e-09`,
		`repro_server_drain_seconds{quantile="0.999"} 5e-09`,
		"repro_server_drain_seconds_sum 5e-09",
		"repro_server_drain_seconds_count 1",
		"repro_server_err_decode_total 0",
		"repro_server_err_del_total 0",
		"repro_server_err_set_total 0",
		"repro_server_err_too_big_total 0",
		"repro_server_frames_in_total 10",
		"repro_server_frames_out_total 9",
		"repro_server_get_misses_total 1",
		`repro_server_get_seconds{quantile="0.5"} 0`,
		`repro_server_get_seconds{quantile="0.99"} 0`,
		`repro_server_get_seconds{quantile="0.999"} 0`,
		"repro_server_get_seconds_sum 0",
		"repro_server_get_seconds_count 0",
		"repro_server_gets_total 4",
		"repro_server_mget_keys_total 3",
		`repro_server_mget_seconds{quantile="0.5"} 0`,
		`repro_server_mget_seconds{quantile="0.99"} 0`,
		`repro_server_mget_seconds{quantile="0.999"} 0`,
		"repro_server_mget_seconds_sum 0",
		"repro_server_mget_seconds_count 0",
		"repro_server_mgets_total 1",
		`repro_server_set_seconds{quantile="0.5"} 1.7e-08`,
		`repro_server_set_seconds{quantile="0.99"} 1.7e-08`,
		`repro_server_set_seconds{quantile="0.999"} 1.7e-08`,
		"repro_server_set_seconds_sum 3.4e-08",
		"repro_server_set_seconds_count 2",
		"repro_server_sets_total 2",
		"repro_server_stats_total 1",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("STATS samples drifted from the pinned format.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAppendTextUptimeUnit pins the unit discipline: uptime is a gauge
// in seconds, and every time-valued series carries _seconds in its name.
func TestAppendTextUptimeUnit(t *testing.T) {
	var c Counters
	r := obs.NewRegistry()
	c.register(r, time.Now().Add(-1500*time.Millisecond))
	text := string(r.AppendProm(nil))
	if !strings.Contains(text, "# TYPE repro_server_uptime_seconds gauge\n") {
		t.Fatalf("no repro_server_uptime_seconds gauge in:\n%s", text)
	}
	_, vals := parseExposition(t, text)
	up, err := strconv.ParseFloat(vals["repro_server_uptime_seconds"], 64)
	if err != nil || up < 1.5 || up > 60 {
		t.Errorf("repro_server_uptime_seconds = %q, want about 1.5", vals["repro_server_uptime_seconds"])
	}
	for _, field := range []string{"GetNanos", "SetNanos", "DelNanos", "MGetNanos", "ConnNanos", "DrainNanos"} {
		if s := counterSeries[field]; !strings.HasSuffix(s, "_seconds_count") {
			t.Errorf("Counters.%s is exposed as %s, want a _seconds series", field, s)
		}
	}
}
