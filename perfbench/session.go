package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/obs"
)

// pool is the IPL pool every benchmark node joins.
const pool = "perfbench"

// locateTimeout bounds LocateReceivePort during set-up.
const locateTimeout = 10 * time.Second

// workloadDef is one workload: how many flows generate load, how
// sparsely its operations are traced, and how to build it.
type workloadDef struct {
	name string
	// unit names one operation in the printed results.
	unit   string
	flows  int
	stride uint64
	params map[string]any
	// inputs makes the workload's seeded payloads, one corpus per flow.
	inputs func(seed int64) []*corpus
	setup  func(env *setupEnv) (instance, error)
}

// setupEnv carries what one deployment build needs.
type setupEnv struct {
	seed   int64
	tr     *tracer // nil when untraced
	ot     opTrace // the build's root span
	tamper tamper
	inputs []*corpus
}

// instance is a built workload: its load can be started once and
// stopped once, then the deployment torn down.
type instance interface {
	// start launches the flows; they count into l until stop.
	start(l *load)
	// stop ends the flows, waits for every goroutine they started and
	// returns the first verification failure.
	stop() error
	close()
	layers() layerSnap
	backlog() int
}

// world is a deployment on an emunet fabric at time scale 0, with the
// nodes joined into it.
type world struct {
	env   *setupEnv
	fab   *emunet.Fabric
	dep   *core.Deployment
	nodes []*core.Node
	// regs holds each node's obs registry; only traced runs attach them.
	regs []*obs.Registry
}

// newWorld builds the fabric and deployment. build returns the
// deployment for the workload's topology.
func newWorld(env *setupEnv, build func(f *emunet.Fabric) (*core.Deployment, error)) (*world, error) {
	i := env.ot.start(spanDeploy)
	f := emunet.NewFabric(emunet.WithSeed(env.seed), emunet.WithTimeScale(0))
	dep, err := build(f)
	env.ot.end(i)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("deployment: %w", err)
	}
	return &world{env: env, fab: f, dep: dep}, nil
}

// host adds a site with one host.
func (w *world) host(site string, cfg emunet.SiteConfig) *emunet.Host {
	return w.dep.AddSite(site, cfg).AddHost(site + "-node")
}

func (w *world) join(cfg core.Config) (*core.Node, error) {
	if w.env.tr != nil {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		w.regs = append(w.regs, reg)
	}
	i := w.env.ot.start(spanJoin)
	n, err := core.Join(cfg)
	w.env.ot.end(i)
	if err != nil {
		if w.env.tr != nil {
			w.regs = w.regs[:len(w.regs)-1]
		}
		return nil, fmt.Errorf("join %s: %w", cfg.Name, err)
	}
	w.nodes = append(w.nodes, n)
	return n, nil
}

func (w *world) receivePort(n *core.Node, pt ipl.PortType, name string) (ipl.ReceivePort, error) {
	i := w.env.ot.start(spanCreateRecvPort)
	rp, err := n.CreateReceivePort(pt, name)
	w.env.ot.end(i)
	if err != nil {
		return nil, fmt.Errorf("receive port %s: %w", name, err)
	}
	return rp, nil
}

func (w *world) locate(n *core.Node, name string) (ipl.PortID, error) {
	i := w.env.ot.start(spanLocate)
	id, err := n.LocateReceivePort(name, locateTimeout)
	w.env.ot.end(i)
	if err != nil {
		return id, fmt.Errorf("locate %s: %w", name, err)
	}
	return id, nil
}

// connect locates the named port, connects a new send port to it and,
// unless want is estab.MethodNone, checks that the link came up by want.
func (w *world) connect(n *core.Node, pt ipl.PortType, name string, want estab.Method) (ipl.SendPort, error) {
	id, err := w.locate(n, name)
	if err != nil {
		return nil, err
	}
	i := w.env.ot.start(spanCreateSendPort)
	sp, err := n.CreateSendPort(pt)
	w.env.ot.end(i)
	if err != nil {
		return nil, err
	}
	i = w.env.ot.start(spanConnect)
	err = sp.Connect(id)
	w.env.ot.endAttr(i, methodAttr(sp))
	if err == nil && want != estab.MethodNone {
		err = checkMethod(sp, w.env.tamper.expect(want))
	}
	if err != nil {
		sp.Close()
		return nil, fmt.Errorf("connect to %s: %w", name, err)
	}
	return sp, nil
}

// methodAttr is the span attribute recording a send port's method.
func methodAttr(sp ipl.SendPort) uint8 {
	for _, m := range core.SendPortMethods(sp) {
		return uint8(m)
	}
	return 0
}

func (w *world) close() {
	for _, n := range w.nodes {
		n.Close()
	}
	w.dep.Close()
	w.fab.Close()
}

// layerSnap is a cumulative reading of the counters the per-layer
// metrics are taken from: the relays' public stats and the nodes'
// registries.
type layerSnap struct {
	at              time.Time
	framesRouted    int64
	framesForwarded int64
	egressWrites    int64
	egressFrames    int64
	creditStalls    float64
	blockedSeconds  float64
	cacheHits       float64
	cacheMisses     float64
}

func (w *world) layers() layerSnap {
	s := layerSnap{at: time.Now()}
	for _, ri := range w.dep.Relays {
		st := ri.Server.Stats()
		s.framesRouted += st.FramesRouted
		s.framesForwarded += st.FramesForwarded
		writes, frames := ri.Server.EgressWriteStats()
		s.egressWrites += writes
		s.egressFrames += frames
	}
	for _, reg := range w.regs {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			continue
		}
		sc, err := obs.ParseText(&buf)
		if err != nil {
			continue
		}
		v := func(name string) float64 { x, _ := sc.Value(name); return x }
		s.creditStalls += v("netibis_flow_credit_stalls_total")
		s.blockedSeconds += v("netibis_flow_blocked_writer_seconds_total")
		// The estab family counts on the initiating node only.
		s.cacheHits += v("netibis_estab_cache_hits_total")
		s.cacheMisses += v("netibis_estab_cache_misses_total")
	}
	return s
}

// backlogTick is how often a traced session samples the relays' egress
// backlog.
const backlogTick = 2 * time.Millisecond

// backlog is the total egress backlog of the relays, in frames.
func (w *world) backlog() int {
	total := 0
	for _, ri := range w.dep.Relays {
		for _, nb := range ri.Server.EgressBacklogAll() {
			total += nb.Frames
		}
	}
	return total
}

// stopSignal is closed once to end a load.
type stopSignal chan struct{}

func (s stopSignal) stopping() bool {
	select {
	case <-s:
		return true
	default:
		return false
	}
}

// firstError keeps the first error reported by any goroutine.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// stopTimeout bounds how long stopping a load may take. A flow stuck
// past it (its peer died) is left to the teardown, which closes its
// connections, and the run fails.
const stopTimeout = 20 * time.Second

// waitFor waits for wg, giving up after stopTimeout.
func waitFor(wg *sync.WaitGroup, what string) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(stopTimeout):
		return fmt.Errorf("%s did not stop within %v", what, stopTimeout)
	}
}

// session is one build-measure-teardown cycle of a workload.
type session struct {
	SetupS  []float64 `json:"setup_s"`
	Window  window    `json:"window"`
	Relay   relayRates
	Estab   estabRates
	Spans   []spanStat `json:"spans,omitempty"`
	Dropped int64      `json:"dropped_spans,omitempty"`
}

// relayRates are the relay and overlay counters over a traced window.
type relayRates struct {
	FramesPerWrite  float64 `json:"egress_frames_per_write"`
	FramesRouted    float64 `json:"frames_routed_per_s"`
	FramesForwarded float64 `json:"frames_forwarded_per_s"`
	BacklogMax      float64 `json:"egress_backlog_max"`
	CreditStalls    float64 `json:"credit_stalls_per_s"`
	CreditStallMs   float64 `json:"credit_stall_ms_per_s"`
}

// estabRates are the establishment counters over a traced window.
type estabRates struct {
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// maxSetups caps the deployment builds of one session.
const maxSetups = 200

// runSession builds the workload at least o.setups times and until
// o.setupBudget has passed (timing each build, and keeping the last),
// runs its load through a warm-up and one measured window of length d,
// stops it and tears it down. With tr non-nil the builds and the window
// are traced and the nodes carry registries.
func runSession(def *workloadDef, o options, d time.Duration, tr *tracer) (*session, error) {
	s := &session{}
	inputs := def.inputs(o.seed)
	var inst instance
	begin := time.Now()
	for i := 0; i < o.setups || (time.Since(begin) < o.setupBudget && i < maxSetups); i++ {
		if inst != nil {
			inst.close()
		}
		// Every build starts from a collected heap, so that one build
		// does not pay for the garbage of the one before.
		runtime.GC()
		env := &setupEnv{seed: o.seed, tr: tr, tamper: o.tamper, inputs: inputs}
		env.ot = tr.beginAlways("setup", spanSetup, uint64(i))
		t0 := time.Now()
		var err error
		inst, err = def.setup(env)
		s.SetupS = append(s.SetupS, time.Since(t0).Seconds())
		env.ot.finish()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
	}
	defer inst.close()

	l := &load{}
	l.ph.Store(newPhase(def.flows, o.seed, nil))
	inst.start(l)
	time.Sleep(o.warmup)
	before := inst.layers()
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	backlogMax := 0
	go func() {
		defer close(sampled)
		if tr == nil {
			return
		}
		t := time.NewTicker(backlogTick)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				backlogMax = max(backlogMax, inst.backlog())
			}
		}
	}()
	s.Window = measure(l, def.flows, o.seed, d, tr)
	close(stopSampling)
	<-sampled
	after := inst.layers()
	if err := inst.stop(); err != nil {
		return s, err
	}
	if tr != nil {
		s.Relay, s.Estab = rates(before, after)
		s.Relay.BacklogMax = float64(backlogMax)
		s.Spans, s.Dropped = tr.summary()
	}
	return s, nil
}

func rates(a, b layerSnap) (relayRates, estabRates) {
	dt := b.at.Sub(a.at).Seconds()
	var r relayRates
	if writes := b.egressWrites - a.egressWrites; writes > 0 {
		r.FramesPerWrite = float64(b.egressFrames-a.egressFrames) / float64(writes)
	}
	r.FramesRouted = float64(b.framesRouted-a.framesRouted) / dt
	r.FramesForwarded = float64(b.framesForwarded-a.framesForwarded) / dt
	r.CreditStalls = (b.creditStalls - a.creditStalls) / dt
	r.CreditStallMs = (b.blockedSeconds - a.blockedSeconds) * 1e3 / dt
	var e estabRates
	if n := (b.cacheHits - a.cacheHits) + (b.cacheMisses - a.cacheMisses); n > 0 {
		e.CacheHitRatio = (b.cacheHits - a.cacheHits) / n
	}
	return r, e
}
