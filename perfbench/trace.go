package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanName names a span: the benchmark's own call into one layer's
// public function, or the root of one operation.
type spanName uint8

const (
	spanSetup          spanName = iota // root: one deployment build
	spanOp                             // root: one message, round trip or connect cycle
	spanDeploy                         // core.NewDeployment and the sites
	spanJoin                           // core.Join
	spanCreateRecvPort                 // Node.CreateReceivePort
	spanLocate                         // Node.LocateReceivePort (name service lookup)
	spanCreateSendPort                 // Node.CreateSendPort
	spanConnect                        // SendPort.Connect (attr: estab method)
	spanNewMessage                     // SendPort.NewMessage
	spanEncode                         // ipl.WriteMessage Write* calls
	spanFinish                         // WriteMessage.Finish
	spanReceive                        // ReceivePort.Receive
	spanDecode                         // ipl.ReadMessage Read* calls
	spanVerify                         // the benchmark's own checksum check
	spanClose                          // SendPort.Close
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"setup", "op", "core.deployment", "core.join", "core.create_receive_port",
	"nameservice.locate", "core.create_send_port", "core.connect",
	"core.new_message", "ipl.encode", "core.finish", "core.receive",
	"ipl.decode", "bench.verify", "core.close",
}

func (n spanName) String() string { return spanNames[n] }

// maxSpansPerSlot bounds one slot's span memory; spans beyond it are
// counted as dropped.
const maxSpansPerSlot = 1 << 18

// span is one recorded interval. Spans of one operation share op;
// parent indexes the enclosing span in the same slot (-1 for a root).
type span struct {
	op         uint64
	parent     int32
	name       spanName
	attr       uint8
	start, end int64 // ns since the tracer's epoch
}

// slot is one goroutine's span buffer. Only that goroutine appends; mu
// orders its writes against the summary read after the phase, when an
// operation may still be finishing.
type slot struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
}

// tracer records spans in memory around the benchmark's own calls into
// the layers and writes them out when the run ends. It traces one
// operation in every stride (operation sequence numbers are per flow,
// so both ends of a message make the same choice).
type tracer struct {
	epoch  time.Time
	stride uint64
	mu     sync.Mutex
	slots  map[string]*slot
}

func newTracer(stride uint64) *tracer {
	if stride == 0 {
		stride = 1
	}
	return &tracer{epoch: time.Now(), stride: stride, slots: make(map[string]*slot)}
}

// slot returns the named goroutine's buffer.
func (t *tracer) slot(name string) *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slots[name]
	if s == nil {
		s = &slot{}
		t.slots[name] = s
	}
	return s
}

// opTrace is the handle one goroutine uses to record the spans of one
// operation. The zero value records nothing.
type opTrace struct {
	t    *tracer
	s    *slot
	op   uint64
	root int32
}

// opID combines a flow index and a per-flow sequence number.
func opID(flow int, seq uint64) uint64 { return uint64(flow)<<40 | seq }

// begin starts tracing one operation with a root span, if t is non-nil
// and the operation is sampled.
func (t *tracer) begin(slot string, root spanName, op uint64) opTrace {
	if !t.sampled(op) {
		return opTrace{}
	}
	return t.beginAlways(slot, root, op)
}

// beginAlways is begin without sampling (set-up builds are few).
func (t *tracer) beginAlways(slot string, root spanName, op uint64) opTrace {
	if t == nil {
		return opTrace{}
	}
	o := opTrace{t: t, s: t.slot(slot), op: op, root: -1}
	o.root = o.add(root, -1)
	return o
}

// join records spans of an operation that began on another goroutine
// (the acceptor's side of a message), without a local root.
func (t *tracer) join(slot string, op uint64) opTrace {
	if !t.sampled(op) {
		return opTrace{}
	}
	return opTrace{t: t, s: t.slot(slot), op: op, root: -1}
}

func (t *tracer) sampled(op uint64) bool {
	return t != nil && (op&(1<<40-1))%t.stride == 0
}

func (o opTrace) add(name spanName, parent int32) int32 {
	now := time.Since(o.t.epoch).Nanoseconds()
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	if len(o.s.spans) >= maxSpansPerSlot {
		o.s.dropped++
		return -1
	}
	o.s.spans = append(o.s.spans, span{op: o.op, parent: parent, name: name, start: now, end: -1})
	return int32(len(o.s.spans) - 1)
}

// start opens a child span of the operation's root and returns its
// index (-1 when the operation is not traced).
func (o opTrace) start(name spanName) int32 {
	if o.t == nil {
		return -1
	}
	return o.add(name, o.root)
}

// end closes span i, tagging it with attr.
func (o opTrace) endAttr(i int32, attr uint8) {
	if o.t == nil || i < 0 {
		return
	}
	now := time.Since(o.t.epoch).Nanoseconds()
	o.s.mu.Lock()
	o.s.spans[i].end = now
	o.s.spans[i].attr = attr
	o.s.mu.Unlock()
}

func (o opTrace) end(i int32) { o.endAttr(i, 0) }

// finish closes the root span.
func (o opTrace) finish() { o.end(o.root) }

// spanKey groups spans for the summary.
type spanKey struct {
	name spanName
	attr uint8
}

// spanStat summarises the closed spans of one name (and attribute).
type spanStat struct {
	Name      string  `json:"name"`
	Attr      uint8   `json:"attr,omitempty"`
	Count     int     `json:"count"`
	P50ns     float64 `json:"p50_ns"`
	P99ns     float64 `json:"p99_ns"`
	SelfP50ns float64 `json:"self_p50_ns"`
	SelfSumMs float64 `json:"self_sum_ms"`
}

// summary computes per-name duration and self-time statistics, sorted by
// name. A span's self time is its duration minus the part its children
// cover.
func (t *tracer) summary() ([]spanStat, int64) {
	durs := map[spanKey][]float64{}
	selfs := map[spanKey][]float64{}
	var dropped int64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.slots {
		s.mu.Lock()
		dropped += s.dropped
		self := make([]int64, len(s.spans))
		for i, sp := range s.spans {
			if sp.end >= 0 {
				self[i] += sp.end - sp.start
				if sp.parent >= 0 {
					self[sp.parent] -= sp.end - sp.start
				}
			}
		}
		for i, sp := range s.spans {
			if sp.end < 0 {
				continue
			}
			k := spanKey{sp.name, sp.attr}
			durs[k] = append(durs[k], float64(sp.end-sp.start))
			selfs[k] = append(selfs[k], float64(self[i]))
		}
		s.mu.Unlock()
	}
	out := make([]spanStat, 0, len(durs))
	for k, d := range durs {
		sort.Float64s(d)
		st := spanStat{Name: k.name.String(), Attr: k.attr, Count: len(d), P50ns: d[len(d)/2], P99ns: d[(len(d)-1)*99/100]}
		self := selfs[k]
		for _, v := range self {
			st.SelfSumMs += v / 1e6
		}
		sort.Float64s(self)
		st.SelfP50ns = self[len(self)/2]
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Attr < out[j].Attr
	})
	return out, dropped
}

// spanP50 is the median duration of the spans named n with attribute
// attr (0 when there are none).
func spanP50(stats []spanStat, n spanName, attr uint8) float64 {
	for _, st := range stats {
		if st.Name == n.String() && st.Attr == attr {
			return st.P50ns
		}
	}
	return 0
}

// writeSpans writes every recorded span as one line of
// "slot op parent name attr start_ns end_ns".
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# slot op parent name attr start_ns end_ns")
	t.mu.Lock()
	names := make([]string, 0, len(t.slots))
	for n := range t.slots {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := t.slots[n]
		s.mu.Lock()
		for _, sp := range s.spans {
			fmt.Fprintf(w, "%s %d %d %s %d %d %d\n", n, sp.op, sp.parent, sp.name, sp.attr, sp.start, sp.end)
		}
		s.mu.Unlock()
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
