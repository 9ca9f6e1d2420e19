package main

import (
	"fmt"
	"sync"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/identity"
	"netibis/internal/ipl"
	"netibis/internal/workload"
)

// bulkMsg is the bulk workloads' message payload size.
const bulkMsg = 64 << 10

// bulkCorpusMsgs is how many distinct seeded payloads a bulk flow
// cycles through (4 MiB of input per flow).
const bulkCorpusMsgs = 64

// bulk-spliced: one sender streams 64 KiB Grid-corpus messages between
// two stateful-firewall sites; the link comes up by TCP splicing, with
// port type zip:codec=lz/multi:streams=2/tcpblk.
//
// Why: this is the paper's Fig. 9/10 case, compression plus parallel
// streams on a direct WAN link. zip, multi, tcpblk and emunet do the
// work; relay and estab sit idle once the link is up.
var bulkSpliced = &workloadDef{
	name:   "bulk-spliced",
	unit:   "64 KiB message",
	flows:  1,
	stride: 4,
	params: map[string]any{
		"port_stack": "zip:codec=lz/multi:streams=2/tcpblk", "message_bytes": bulkMsg,
		"payload": workload.Grid.String(), "flows": 1, "method": estab.Splicing.String(),
		"sites": "stateful firewall -> stateful firewall", "relays": 1,
	},
	inputs: func(seed int64) []*corpus {
		return []*corpus{bulkCorpus(workload.Grid, bulkCorpusMsgs, bulkMsg, seed)}
	},
	setup: setupBulkSpliced,
}

var splicedPort = ipl.PortType{Name: "bulk-spliced", Stack: "zip:codec=lz/multi:streams=2/tcpblk"}

func setupBulkSpliced(env *setupEnv) (_ instance, err error) {
	w, err := newWorld(env, core.NewDeployment)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	stateful := emunet.SiteConfig{Firewall: emunet.Stateful}
	snd, err := w.join(w.dep.NodeConfig(w.host("fw-send", stateful), pool, "sender"))
	if err != nil {
		return nil, err
	}
	rcv, err := w.join(w.dep.NodeConfig(w.host("fw-recv", stateful), pool, "receiver"))
	if err != nil {
		return nil, err
	}
	rp, err := w.receivePort(rcv, splicedPort, "bulk-0")
	if err != nil {
		return nil, err
	}
	sp, err := w.connect(snd, splicedPort, "bulk-0", estab.Splicing)
	if err != nil {
		return nil, err
	}
	return newBulk(w, []*stream{{flow: 0, sp: sp, rp: rp, c: env.inputs[0]}}), nil
}

// bulk-routed-secure: two flows (one per core) of 64 KiB
// workload.Random messages. Every node sits behind a broken NAT with no
// proxy, so the data links fall back to routed messages, on a secure
// 2-relay mesh with RequireSecureRouted: senders attach to relay 0 and
// receivers to relay 1. Port type zip:codec=lz/tcpblk.
//
// Why: relay egress and writev, overlay forwarding, routed-link
// delivery, credit flow control and identity AEAD do the work. zip runs
// only on its incompressible (stored-block) path, so a codec change that
// helps bulk-spliced by slowing that path shows here. multi is absent.
var bulkRoutedSecure = &workloadDef{
	name:   "bulk-routed-secure",
	unit:   "64 KiB message",
	flows:  2,
	stride: 4,
	params: map[string]any{
		"port_stack": "zip:codec=lz/tcpblk", "message_bytes": bulkMsg,
		"payload": workload.Random.String(), "flows": 2, "method": estab.Routed.String(),
		"sites": "broken NAT, no proxy -> broken NAT, no proxy", "relays": 2,
		"require_secure_routed": true,
	},
	inputs: func(seed int64) []*corpus {
		return []*corpus{
			bulkCorpus(workload.Random, bulkCorpusMsgs, bulkMsg, seed),
			bulkCorpus(workload.Random, bulkCorpusMsgs, bulkMsg, seed+1),
		}
	},
	setup: setupBulkRoutedSecure,
}

var routedPort = ipl.PortType{Name: "bulk-routed", Stack: "zip:codec=lz/tcpblk"}

func setupBulkRoutedSecure(env *setupEnv) (_ instance, err error) {
	ca, err := identity.NewAuthority()
	if err != nil {
		return nil, err
	}
	w, err := newWorld(env, func(f *emunet.Fabric) (*core.Deployment, error) {
		return core.NewSecureFederatedDeployment(f, 2, ca)
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	brokenNAT := emunet.SiteConfig{Firewall: emunet.Stateful, NAT: emunet.BrokenNAT}
	node := func(site, name string, relay int) (*core.Node, error) {
		cfg, err := w.dep.SecureNodeConfig(w.host(site, brokenNAT), pool, name)
		if err != nil {
			return nil, err
		}
		cfg.Proxy = emunet.Endpoint{}
		cfg.Relays = []emunet.Endpoint{w.dep.Relays[relay].Endpoint()}
		return w.join(cfg)
	}
	var streams []*stream
	for i := 0; i < 2; i++ {
		snd, err := node(fmt.Sprintf("bnat-send-%d", i), fmt.Sprintf("sender-%d", i), 0)
		if err != nil {
			return nil, err
		}
		rcv, err := node(fmt.Sprintf("bnat-recv-%d", i), fmt.Sprintf("receiver-%d", i), 1)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("bulk-%d", i)
		rp, err := w.receivePort(rcv, routedPort, name)
		if err != nil {
			return nil, err
		}
		sp, err := w.connect(snd, routedPort, name, estab.Routed)
		if err != nil {
			return nil, err
		}
		streams = append(streams, &stream{flow: i, sp: sp, rp: rp, c: env.inputs[i]})
	}
	return newBulk(w, streams), nil
}

// stream is one bulk flow: a send port streaming its corpus to a
// receive port.
type stream struct {
	flow int
	sp   ipl.SendPort
	rp   ipl.ReceivePort
	c    *corpus
}

// bulk runs closed-loop streams: each sender blocks in Finish whenever
// the stack below pushes back, so the receiver sets the pace.
type bulk struct {
	*world
	streams []*stream
	stopCh  stopSignal
	senders sync.WaitGroup
	readers sync.WaitGroup
	epoch   time.Time
	errs    firstError
}

func newBulk(w *world, streams []*stream) *bulk {
	return &bulk{world: w, streams: streams, stopCh: make(stopSignal), epoch: time.Now()}
}

func (b *bulk) start(l *load) {
	for _, s := range b.streams {
		b.senders.Add(1)
		b.readers.Add(1)
		go b.send(l, s)
		go b.receive(l, s)
	}
}

func (b *bulk) stop() error {
	close(b.stopCh)
	if err := waitFor(&b.senders, "bulk senders"); err != nil {
		return err
	}
	// Every sender is idle; closing the receive ports ends the readers.
	for _, s := range b.streams {
		s.rp.Close()
	}
	if err := waitFor(&b.readers, "bulk receivers"); err != nil {
		return err
	}
	return b.errs.get()
}

func (b *bulk) send(l *load, s *stream) {
	defer b.senders.Done()
	slot := fmt.Sprintf("flow%d-send", s.flow)
	for seq := uint64(0); !b.stopCh.stopping(); seq++ {
		ot := l.phase().tr.begin(slot, spanOp, opID(s.flow, seq))
		payload, sum := s.c.payload(seq)
		i := ot.start(spanNewMessage)
		m, err := s.sp.NewMessage()
		ot.end(i)
		if err == nil {
			i = ot.start(spanEncode)
			encode(m, message{flow: int64(s.flow), seq: seq, sentNs: time.Since(b.epoch).Nanoseconds(), sum: sum, payload: payload})
			ot.end(i)
			i = ot.start(spanFinish)
			err = m.Finish()
			ot.end(i)
		}
		ot.finish()
		if err != nil {
			// The stream is broken; the harness does not retry.
			if !b.stopCh.stopping() {
				l.failed.Add(1)
			}
			return
		}
	}
}

func (b *bulk) receive(l *load, s *stream) {
	defer b.readers.Done()
	slot := fmt.Sprintf("flow%d-recv", s.flow)
	v := &verifier{c: s.c, flow: fmt.Sprint(s.flow)}
	for seq := uint64(0); ; seq++ {
		ph := l.phase()
		ot := ph.tr.join(slot, opID(s.flow, seq))
		i := ot.start(spanReceive)
		rm, err := s.rp.Receive()
		ot.end(i)
		if err != nil {
			if !b.stopCh.stopping() {
				l.failed.Add(1)
			}
			return
		}
		i = ot.start(spanDecode)
		msg, err := decode(rm)
		ot.end(i)
		if err == nil {
			b.env.tamper.apply(&msg, s.c)
			i = ot.start(spanVerify)
			err = v.check(msg)
			ot.end(i)
		}
		if err != nil {
			b.errs.set(err)
			continue
		}
		ph.record(s.flow, time.Duration(time.Since(b.epoch).Nanoseconds()-msg.sentNs))
		l.bytes.Add(int64(len(msg.payload)))
		l.ops.Add(1)
	}
}
