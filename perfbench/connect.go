package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
)

// ackTimeout bounds how long an initiator waits for the acceptor to
// receive a connect cycle's message before counting the cycle failed.
const ackTimeout = 10 * time.Second

// connect-mix: two initiators each repeat a cycle of CreateSendPort,
// Connect, one small message, Close. The targets are receive ports on
// acceptors whose topologies settle on different methods once the
// connectivity cache is warm: a stateful-firewall initiator reaches an
// open site (client/server), a firewalled site (tcp-splicing) and a
// broken-NAT site (routed-messages); a strict-firewall initiator with a
// proxy reaches the open site (SOCKS proxy).
//
// Why: without it, estab, nameservice, socks and the relay's
// open/accept handshake would be measured only inside one setup_s
// sample. Connect latency is the paper's Table 1 concern.
var connectMix = &workloadDef{
	name:   "connect-mix",
	unit:   "connect cycle",
	flows:  2,
	stride: 1,
	params: map[string]any{
		"port_stack": "tcpblk", "payload_bytes": "64-256", "initiators": 2,
		"targets": "stateful -> open (client/server), stateful -> stateful (tcp-splicing), " +
			"stateful -> broken NAT (routed-messages), strict + proxy -> open (tcp-proxy)",
		"relays": 1,
	},
	inputs: func(seed int64) []*corpus {
		return []*corpus{smallCorpus(256, 64, 256, seed), smallCorpus(256, 64, 256, seed+1)}
	},
	setup: setupConnectMix,
}

var connectPort = ipl.PortType{Name: "connect-mix", Stack: "tcpblk"}

// cmOrderLen is the period of an initiator's seeded target order; it is
// a multiple of every initiator's target count.
const cmOrderLen = 60

// cmTarget is one receive port an initiator connects to, with the
// method the warm connectivity cache must settle on.
type cmTarget struct {
	port string
	id   ipl.PortID
	want estab.Method
}

type cmInitiator struct {
	flow    int
	node    *core.Node
	c       *corpus
	targets []cmTarget
	// order is the seeded sequence of target indexes, cycled.
	order []int
	acks  chan cmAck
}

// cmAck tells an initiator that its cycle's message arrived.
type cmAck struct {
	seq uint64
	at  time.Time
}

func setupConnectMix(env *setupEnv) (_ instance, err error) {
	w, err := newWorld(env, core.NewDeployment)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	sites := []struct {
		name string
		cfg  emunet.SiteConfig
	}{
		{"open", emunet.SiteConfig{Firewall: emunet.Open}},
		{"fw-acc", emunet.SiteConfig{Firewall: emunet.Stateful}},
		{"bnat-acc", emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}},
		{"fw-init", emunet.SiteConfig{Firewall: emunet.Stateful}},
		{"strict-init", emunet.SiteConfig{Firewall: emunet.Strict, PrivateAddresses: true}},
	}
	nodes := map[string]*core.Node{}
	for _, s := range sites {
		n, err := w.join(w.dep.NodeConfig(w.host(s.name, s.cfg), pool, s.name))
		if err != nil {
			return nil, err
		}
		nodes[s.name] = n
	}
	cm := &connectMixRun{world: w, stopCh: make(stopSignal)}
	for _, name := range []string{"open", "fw-acc", "bnat-acc"} {
		rp, err := w.receivePort(nodes[name], connectPort, "cm-"+name)
		if err != nil {
			return nil, err
		}
		cm.acceptors = append(cm.acceptors, rp)
	}
	plans := []struct {
		node    string
		targets []cmTarget
	}{
		{"fw-init", []cmTarget{{port: "cm-open", want: estab.ClientServer}, {port: "cm-fw-acc", want: estab.Splicing}, {port: "cm-bnat-acc", want: estab.Routed}}},
		{"strict-init", []cmTarget{{port: "cm-open", want: estab.Proxy}}},
	}
	rng := rand.New(rand.NewSource(env.seed))
	for flow, p := range plans {
		in := &cmInitiator{flow: flow, node: nodes[p.node], c: env.inputs[flow], acks: make(chan cmAck, 1)}
		// The first connects: locate every target and connect once,
		// which also fills the connectivity cache.
		for _, t := range p.targets {
			sp, err := w.connect(in.node, connectPort, t.port, estab.MethodNone)
			if err != nil {
				return nil, err
			}
			for _, id := range sp.ConnectedTo() {
				t.id = id
			}
			sp.Close()
			t.want = env.tamper.expect(t.want)
			in.targets = append(in.targets, t)
		}
		// Each target appears equally often in every period of the
		// order, so that the seed changes the sequence but not the mix.
		for i := 0; i < cmOrderLen; i++ {
			in.order = append(in.order, i%len(in.targets))
		}
		rng.Shuffle(len(in.order), func(i, j int) { in.order[i], in.order[j] = in.order[j], in.order[i] })
		cm.initiators = append(cm.initiators, in)
	}
	return cm, nil
}

type connectMixRun struct {
	*world
	acceptors  []ipl.ReceivePort
	initiators []*cmInitiator
	stopCh     stopSignal
	inits      sync.WaitGroup
	accs       sync.WaitGroup
	epoch      time.Time
	errs       firstError
}

func (cm *connectMixRun) start(l *load) {
	cm.epoch = time.Now()
	for _, rp := range cm.acceptors {
		cm.accs.Add(1)
		go cm.accept(l, rp)
	}
	for _, in := range cm.initiators {
		cm.inits.Add(1)
		go cm.initiate(l, in)
	}
}

func (cm *connectMixRun) stop() error {
	close(cm.stopCh)
	if err := waitFor(&cm.inits, "connect initiators"); err != nil {
		return err
	}
	for _, rp := range cm.acceptors {
		rp.Close()
	}
	if err := waitFor(&cm.accs, "connect acceptors"); err != nil {
		return err
	}
	return cm.errs.get()
}

// initiate runs one initiator's closed loop of connect cycles. A cycle
// that is refused, errors or times out counts as failed; the next cycle
// starts afresh (no retry).
func (cm *connectMixRun) initiate(l *load, in *cmInitiator) {
	defer cm.inits.Done()
	slot := fmt.Sprintf("flow%d-initiator", in.flow)
	timer := time.NewTimer(ackTimeout)
	defer timer.Stop()
	for seq := uint64(0); !cm.stopCh.stopping(); seq++ {
		ph := l.phase()
		t := in.targets[in.order[seq%uint64(len(in.order))]]
		payload, sum := in.c.payload(seq)
		ot := ph.tr.begin(slot, spanOp, opID(in.flow, seq))
		t0 := time.Now()
		lat, ok, err := cm.cycle(ot, in, t, message{flow: int64(in.flow), seq: seq, sentNs: t0.Sub(cm.epoch).Nanoseconds(), sum: sum, payload: payload}, t0, timer)
		ot.finish()
		if err != nil {
			cm.errs.set(err)
			return
		}
		if !ok {
			if !cm.stopCh.stopping() {
				l.failed.Add(1)
			}
			continue
		}
		ph.record(in.flow, lat)
		l.bytes.Add(int64(len(payload)))
		l.ops.Add(1)
	}
}

// cycle is one connect cycle. It returns the connect latency (from
// CreateSendPort until the acceptor received the message), whether the
// cycle completed, and a verification error if the link came up by the
// wrong method or the acceptor saw the wrong message.
func (cm *connectMixRun) cycle(ot opTrace, in *cmInitiator, t cmTarget, msg message, t0 time.Time, timer *time.Timer) (time.Duration, bool, error) {
	i := ot.start(spanCreateSendPort)
	sp, err := in.node.CreateSendPort(connectPort)
	ot.end(i)
	if err != nil {
		return 0, false, nil
	}
	defer func() {
		i := ot.start(spanClose)
		sp.Close()
		ot.end(i)
	}()
	i = ot.start(spanConnect)
	err = sp.Connect(t.id)
	ot.endAttr(i, methodAttr(sp))
	if err != nil {
		return 0, false, nil
	}
	if err := checkMethod(sp, t.want); err != nil {
		return 0, false, err
	}
	if err := send(ot, sp, msg); err != nil {
		return 0, false, nil
	}
	timer.Reset(ackTimeout)
	defer timer.Stop()
	for {
		select {
		case a := <-in.acks:
			switch {
			case a.seq < msg.seq:
				continue // the late ack of a cycle that already timed out
			case a.seq > msg.seq:
				return 0, false, fmt.Errorf("%w: initiator %d got the ack of seq %d, want %d", errMisordered, in.flow, a.seq, msg.seq)
			}
			return a.at.Sub(t0), true, nil
		case <-timer.C:
			return 0, false, nil
		case <-cm.stopCh:
			return 0, false, nil
		}
	}
}

// accept drains one acceptor's receive port: it checks each cycle's
// message (payload, and sequence increasing per initiator) and acks it
// to its initiator with the time it arrived.
func (cm *connectMixRun) accept(l *load, rp ipl.ReceivePort) {
	defer cm.accs.Done()
	last := make([]int64, len(cm.initiators))
	for i := range last {
		last[i] = -1
	}
	slot := "acceptor-" + rp.ID().Port
	for {
		rm, err := rp.Receive()
		at := time.Now()
		if err != nil {
			if !cm.stopCh.stopping() {
				l.failed.Add(1)
			}
			return
		}
		msg, err := decode(rm)
		if err == nil && (msg.flow < 0 || int(msg.flow) >= len(cm.initiators)) {
			err = fmt.Errorf("%w: unknown initiator %d", errCorrupt, msg.flow)
		}
		if err != nil {
			cm.errs.set(err)
			continue
		}
		ot := l.phase().tr.join(slot, opID(int(msg.flow), msg.seq))
		in := cm.initiators[msg.flow]
		cm.env.tamper.apply(&msg, in.c)
		i := ot.start(spanVerify)
		if err = in.c.checkPayload(msg); err == nil && int64(msg.seq) <= last[msg.flow] {
			err = fmt.Errorf("%w: acceptor %s got seq %d from initiator %d after %d", errMisordered, rp.ID().Port, msg.seq, msg.flow, last[msg.flow])
		}
		ot.end(i)
		if err != nil {
			cm.errs.set(err)
			continue
		}
		last[msg.flow] = int64(msg.seq)
		select {
		case in.acks <- cmAck{seq: msg.seq, at: at}:
		case <-cm.stopCh:
		}
	}
}
