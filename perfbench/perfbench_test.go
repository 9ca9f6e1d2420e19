package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"netibis/internal/estab"
)

// tiny is a run short enough for a test: one build, a brief warm-up and
// a 300 ms window.
func tiny(workload string) options {
	return options{workload: workload, seed: 7, dur: 300 * time.Millisecond, setups: 1, warmup: 100 * time.Millisecond}
}

func TestWorkloadsComplete(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := bench(tiny(w.name))
			if err != nil {
				t.Fatal(err)
			}
			fail := res.Workload[len(res.Workload)-1]
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || fail.Name != "fail_ratio" || fail.Value != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d %s=%v", res.Correct, res.Attempted, res.Failed, fail.Name, fail.Value)
			}
			for _, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	o := tiny("rpc-small")
	o.trace = true
	res, err := bench(o)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ipl.encode_ns", "ipl.decode_ns", "core.finish_ns", "core.receive_wait_ns", "core.join_ms",
		"nameservice.locate_us", "gc.cpu_fraction", "gc.cycles_per_s", "runtime.allocs_per_op",
		"relay.egress_frames_per_write", "relay.frames_routed", "relay.egress_backlog_max",
		"relay.credit_stalls", "relay.credit_stall_ms", "overlay.frames_forwarded",
		"estab.connect_us.client-server", "estab.connect_us.tcp-splicing",
		"estab.connect_us.routed-messages", "estab.connect_us.socks-proxy", "estab.cache_hit_ratio",
	}
	for _, p := range probeMetricNames {
		want = append(want, p.name)
	}
	got := map[string]metric{}
	for _, m := range res.PerLayer {
		got[m.Name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%d per-layer metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("per-layer metric %s missing", n)
		}
	}
	for _, n := range []string{"ipl.encode_ns", "core.finish_ns", "estab.connect_us.socks-proxy", "relay.frames_routed", "zip.compress_mbps"} {
		if got[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, got[n].Value)
		}
	}
	if len(res.Overhead) != len(res.EndToEnd) {
		t.Errorf("%d overhead figures for %d end-to-end metrics", len(res.Overhead), len(res.EndToEnd))
	}
}

func TestVerifierRejectsCorruptionAndMisordering(t *testing.T) {
	c := smallCorpus(4, 64, 128, 1)
	msg := func(seq uint64) message {
		p, sum := c.payload(seq)
		return message{seq: seq, sum: sum, payload: append([]byte(nil), p...)}
	}
	v := &verifier{c: c, flow: "0"}
	for seq := uint64(0); seq < 3; seq++ {
		if err := v.check(msg(seq)); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	flipped := msg(3)
	flipped.payload[10] ^= 1
	if err := v.check(flipped); !errors.Is(err, errCorrupt) {
		t.Errorf("flipped byte: %v, want %v", err, errCorrupt)
	}
	if err := v.check(msg(4)); !errors.Is(err, errMisordered) {
		t.Errorf("skipped seq: %v, want %v", err, errMisordered)
	}
}

// TestTamperedRunsFail injects each fault at the receiving end of a
// real run and checks that the run fails with the matching error.
func TestTamperedRunsFail(t *testing.T) {
	cases := []struct {
		workload string
		tamper   tamper
		want     error
	}{
		{"bulk-spliced", tamperFlipByte, errCorrupt},
		{"bulk-routed-secure", tamperReorder, errMisordered},
		{"rpc-small", tamperFlipByte, errWrongEcho},
		{"connect-mix", tamperFlipByte, errCorrupt},
		{"connect-mix", tamperReorder, errMisordered},
		{"connect-mix", tamperWrongMethod, errMethod},
		{"bulk-spliced", tamperWrongMethod, errMethod},
	}
	for _, c := range cases {
		o := tiny(c.workload)
		o.tamper = c.tamper
		res, err := bench(o)
		if !errors.Is(err, c.want) {
			t.Errorf("%s with tamper %d: %v, want %v", c.workload, c.tamper, err, c.want)
		}
		if res != nil && res.Correct {
			t.Errorf("%s with tamper %d: run reported correct", c.workload, c.tamper)
		}
	}
}

func TestCheckMethodRejectsWrongMethod(t *testing.T) {
	if tamperWrongMethod.expect(estab.Routed) == estab.Routed || tamperNone.expect(estab.Routed) != estab.Routed {
		t.Fatal("tamper.expect does not swap the method")
	}
}

func TestCommandPrintsResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "rpc-small", "--seed", "3", "--seconds", "0.3", "--trace", "0", "--out", ""}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	for _, m := range []string{"setup_s", "goodput_mbps", "ops_per_s", "latency_p50_us", "latency_p99_us", "cpu_us_per_op", "alloc_kb_per_op", "peak_heap_mb"} {
		if res.Metrics[m].Unit == "" {
			t.Errorf("metric %s missing", m)
		}
	}
	if len(res.Metrics) != 8 {
		t.Errorf("%d metrics, want 8", len(res.Metrics))
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
}
