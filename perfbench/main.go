// Command perfbench is the repository's end-to-end benchmark. It drives
// the public IPL (core.Join, Node.LocateReceivePort, SendPort.Connect,
// WriteMessage.Finish, ReceivePort.Receive) on an emunet fabric at time
// scale 0, so it measures the program rather than emulated WAN delays,
// on one of four workloads (bulk-spliced, bulk-routed-secure, rpc-small,
// connect-mix). See README.md for how to run it.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"netibis/internal/estab"
)

var workloads = []*workloadDef{bulkSpliced, bulkRoutedSecure, rpcSmall, connectMix}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	// dur is the measured time; a traced run splits it between its
	// untraced and traced windows.
	dur   time.Duration
	trace bool
	// setups is the minimum number of deployment builds per session and
	// setupBudget the time after which no further build starts.
	setups      int
	setupBudget time.Duration
	warmup      time.Duration
	outDir      string
	commit      string
	source      string
	tamper      tamper
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: payloads, target order and emunet.WithSeed")
	seconds := fs.Float64("seconds", 10, "measured seconds (a traced run splits them between its untraced and traced windows)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record and trace spans (empty = none)")
	commit := fs.String("commit", "unknown", "commit of the code under test, recorded in the run block")
	source := fs.String("source", "unknown", "digest of the source tree under test, recorded in the run block")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloadByName(*wl) == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	o := options{
		workload: *wl, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, setups: 5, setupBudget: time.Second, warmup: time.Second,
		outDir: *outDir, commit: *commit, source: *source,
	}
	if o.trace {
		o.setups, o.setupBudget = 3, o.setupBudget/2
	}
	res, err := bench(o)
	if res == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	if o.outDir != "" {
		if werr := res.write(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, *trace))); werr != nil {
			fmt.Fprintf(stderr, "perfbench: writing the run record: %v\n", werr)
		}
	}
	line, _ := json.Marshal(res.summary())
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named value.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Source string  `json:"source,omitempty"`
}

// runBlock records the environment of a run.
type runBlock struct {
	Workload   string         `json:"workload"`
	Params     map[string]any `json:"params"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Setups     int            `json:"min_setups_per_session"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_digest"`
	Started    string         `json:"started"`
}

// result is one run: its environment, each session as measured, and
// the metrics derived from them.
type result struct {
	Run       runBlock `json:"run"`
	Untraced  *session `json:"untraced"`
	Traced    *session `json:"traced,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	Workload  []metric `json:"workload_metrics"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	Overhead  []metric `json:"tracing_overhead,omitempty"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Error     string   `json:"error,omitempty"`
	unit      string
}

// bench runs one workload. A nil result means nothing was measured; a
// non-nil result with an error means a verifier failed.
func bench(o options) (*result, error) {
	def := workloadByName(o.workload)
	res := &result{unit: def.unit, Correct: true, Run: runBlock{
		Workload: def.name, Params: def.params, Seed: o.seed, Seconds: o.dur.Seconds(), Traced: o.trace,
		Setups: o.setups, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: o.commit, Source: o.source, Started: time.Now().UTC().Format(time.RFC3339),
	}}
	d := o.dur
	if o.trace {
		d /= 2
	}
	var err error
	res.Untraced, err = runSession(def, o, d, nil)
	if res.Untraced == nil {
		return nil, err
	}
	res.account(res.Untraced, err)
	res.EndToEnd = endToEnd(res.Untraced)
	res.Workload = workloadMetrics(def, res.Untraced)
	if err != nil || !o.trace {
		return res, err
	}
	tr := newTracer(def.stride)
	res.Traced, err = runSession(def, o, d, tr)
	if res.Traced == nil {
		return nil, err
	}
	res.account(res.Traced, err)
	if err != nil {
		return res, err
	}
	traced := endToEnd(res.Traced)
	for i, m := range res.EndToEnd {
		res.Overhead = append(res.Overhead, metric{Name: m.Name, Value: traced[i].Value - m.Value, Unit: m.Unit})
	}
	if err := res.perLayer(def, o); err != nil {
		return nil, err
	}
	if o.outDir != "" {
		if err := tr.writeSpans(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans", def.name, o.seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// account adds a session's operations to the run's totals; a verifier
// error makes the run incorrect.
func (r *result) account(s *session, err error) {
	r.Attempted += s.Window.Ops + s.Window.Failed
	r.Failed += s.Window.Failed
	if err != nil {
		r.Correct = false
		r.Error = err.Error()
	}
}

// endToEnd lists the end-to-end metrics of a session, in the order of
// BENCHMARK.json.
func endToEnd(s *session) []metric {
	w := s.Window
	return []metric{
		{Name: "setup_s", Value: median(s.SetupS), Unit: "s"},
		{Name: "goodput_mbps", Value: w.GoodputMBps, Unit: "MB/s"},
		{Name: "ops_per_s", Value: w.OpsPerS, Unit: "1/s"},
		{Name: "latency_p50_us", Value: w.LatP50us, Unit: "us"},
		{Name: "latency_p99_us", Value: w.LatP99us, Unit: "us"},
		{Name: "cpu_us_per_op", Value: w.CPUusPerOp, Unit: "us"},
		{Name: "alloc_kb_per_op", Value: w.AllocKBPerOp, Unit: "KiB"},
		{Name: "peak_heap_mb", Value: w.PeakHeapMB, Unit: "MiB"},
	}
}

// workloadMetrics names the end-to-end figures the way the workload's
// users read them (round trips, connects), with the failure ratio.
func workloadMetrics(def *workloadDef, s *session) []metric {
	w := s.Window
	var ops, p50, p99 string
	switch def {
	case rpcSmall:
		ops, p50, p99 = "rpc_per_s", "rtt_p50_us", "rtt_p99_us"
	case connectMix:
		ops, p50, p99 = "connects_per_s", "connect_p50_us", "connect_p99_us"
	default:
		ops, p50, p99 = "messages_per_s", "delivery_p50_us", "delivery_p99_us"
	}
	failRatio := 0.0
	if n := w.Ops + w.Failed; n > 0 {
		failRatio = float64(w.Failed) / float64(n)
	}
	return []metric{
		{Name: "goodput_mbps", Value: w.GoodputMBps, Unit: "MB/s"},
		{Name: ops, Value: w.OpsPerS, Unit: "1/s"},
		{Name: p50, Value: w.LatP50us, Unit: "us"},
		{Name: p99, Value: w.LatP99us, Unit: "us"},
		{Name: "latency_samples", Value: float64(w.LatSamples), Unit: "count"},
		{Name: "ops", Value: float64(w.Ops), Unit: "count"},
		{Name: "fail_ratio", Value: failRatio, Unit: "ratio"},
	}
}

// methodNames are the per-layer names of the establishment methods.
var methodNames = []struct {
	m    estab.Method
	name string
}{
	{estab.ClientServer, "client-server"},
	{estab.Splicing, "tcp-splicing"},
	{estab.Routed, "routed-messages"},
	{estab.Proxy, "socks-proxy"},
}

// companionSeconds is the measured time of a companion session: the
// short traced run of another workload that supplies a layer the traced
// workload leaves idle.
const companionSeconds = time.Second

// perLayer derives the per-layer metrics: spans of the traced session,
// the relay and registry counters of the session that loads those
// layers (the workload itself or a companion), and the isolation probes.
func (r *result) perLayer(def *workloadDef, o options) error {
	s := r.Traced
	add := func(name string, v float64, unit, source string) {
		r.PerLayer = append(r.PerLayer, metric{Name: name, Value: v, Unit: unit, Source: source})
	}
	self := "spans:" + def.name
	add("ipl.encode_ns", spanP50(s.Spans, spanEncode, 0), "ns", self)
	add("ipl.decode_ns", spanP50(s.Spans, spanDecode, 0), "ns", self)
	add("core.finish_ns", spanP50(s.Spans, spanFinish, 0), "ns", self)
	add("core.receive_wait_ns", spanP50(s.Spans, spanReceive, 0), "ns", self)
	add("core.join_ms", spanP50(s.Spans, spanJoin, 0)/1e6, "ms", self)
	add("nameservice.locate_us", spanP50(s.Spans, spanLocate, 0)/1e3, "us", self)
	add("gc.cpu_fraction", s.Window.GCCPUFrac, "ratio", self)
	add("gc.cycles_per_s", s.Window.GCCyclesPerS, "1/s", self)
	add("runtime.allocs_per_op", s.Window.AllocsPerOp, "count", self)

	companion := func(c *workloadDef) (*session, string, error) {
		if c == def {
			return s, self, nil
		}
		co := o
		co.setups, co.setupBudget, co.warmup = 1, 0, 200*time.Millisecond
		cs, err := runSession(c, co, companionSeconds, newTracer(1))
		if err != nil {
			return nil, "", fmt.Errorf("companion %s: %w", c.name, err)
		}
		return cs, "companion:" + c.name, nil
	}
	rs, src, err := companion(bulkRoutedSecure)
	if err != nil {
		return err
	}
	add("relay.egress_frames_per_write", rs.Relay.FramesPerWrite, "frames/write", src)
	add("relay.frames_routed", rs.Relay.FramesRouted, "1/s", src)
	add("relay.egress_backlog_max", rs.Relay.BacklogMax, "frames", src)
	add("relay.credit_stalls", rs.Relay.CreditStalls, "1/s", src)
	add("relay.credit_stall_ms", rs.Relay.CreditStallMs, "ms/s", src)
	add("overlay.frames_forwarded", rs.Relay.FramesForwarded, "1/s", src)

	cs, src, err := companion(connectMix)
	if err != nil {
		return err
	}
	for _, m := range methodNames {
		add("estab.connect_us."+m.name, spanP50(cs.Spans, spanConnect, uint8(m.m))/1e3, "us", src)
	}
	add("estab.cache_hit_ratio", cs.Estab.CacheHitRatio, "ratio", src)

	pm, err := layerProbes(o.seed)
	if err != nil {
		return err
	}
	for _, n := range probeMetricNames {
		add(n.name, pm[n.name], n.unit, "probe")
	}
	return nil
}

// probeMetricNames lists the isolation probes' metrics with their units.
var probeMetricNames = []struct{ name, unit string }{
	{"zip.compress_mbps", "MB/s"}, {"zip.decompress_mbps", "MB/s"}, {"zip.ratio", "ratio"},
	{"zip.allocs_per_block", "count"}, {"zip.stored_mbps", "MB/s"},
	{"multi.mbps", "MB/s"}, {"multi.allocs_per_msg", "count"},
	{"identity.seal_mbps", "MB/s"}, {"identity.open_mbps", "MB/s"},
	{"tcpblk.ns_per_msg_small", "ns"}, {"tcpblk.mbps_64k", "MB/s"},
	{"wire.encode_ns_small", "ns"}, {"wire.decode_ns_small", "ns"},
	{"wire.encode_ns_64k", "ns"}, {"wire.decode_ns_64k", "ns"},
	{"emunet.mbps_64k", "MB/s"}, {"emunet.rtt_ns_small", "ns"},
}

// summary is the final result line: the end-to-end metrics, or in a
// traced run the per-layer ones.
func (r *result) summary() map[string]any {
	ms := r.EndToEnd
	if r.Run.Traced {
		ms = r.PerLayer
	}
	out := map[string]any{}
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": out}
}

func (r *result) print(w io.Writer) {
	b := r.Run
	fmt.Fprintf(w, "perfbench %s  seed=%d  seconds=%g  traced=%v  GOMAXPROCS=%d  NumCPU=%d  %s  commit=%s\n",
		b.Workload, b.Seed, b.Seconds, b.Traced, b.GOMAXPROCS, b.NumCPU, b.GoVersion, b.Commit)
	keys := make([]string, 0, len(b.Params))
	for k := range b.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  param %-22s %v\n", k, b.Params[k])
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			src := ""
			if m.Source != "" {
				src = "  [" + m.Source + "]"
			}
			fmt.Fprintf(w, "  %-34s %16.4f %-12s%s\n", m.Name, m.Value, m.Unit, src)
		}
	}
	u := r.Untraced.Window
	section(fmt.Sprintf("end-to-end (untraced; op = one %s; %d ops, %d latency samples, %d slices)", r.unit, u.Ops, u.LatSamples, u.Slices), r.EndToEnd)
	section("workload view", r.Workload)
	section("tracing overhead (traced minus untraced)", r.Overhead)
	section("per-layer (traced)", r.PerLayer)
	if r.Traced != nil {
		fmt.Fprintf(w, "spans of the traced session (%d dropped):\n  %-26s %4s %9s %14s %14s\n", r.Traced.Dropped, "name", "attr", "count", "p50_ns", "self_p50_ns")
		for _, st := range r.Traced.Spans {
			fmt.Fprintf(w, "  %-26s %4d %9d %14.0f %14.0f\n", st.Name, st.Attr, st.Count, st.P50ns, st.SelfP50ns)
		}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

func (r *result) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
