package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"netibis/internal/core"
	"netibis/internal/emunet"
	"netibis/internal/estab"
	"netibis/internal/ipl"
)

// rpc-small: a master echoes typed messages (flow, sequence number,
// checksum and 64-512 B of seeded bytes) to two workers, one in a
// stateful-firewall site and one behind a standards-compliant NAT. Both
// links are direct (TCP splicing) over tcpblk, with one closed-loop
// client per worker.
//
// Why: per-message cost dominates here (ipl encode/decode, core deliver
// and receive dispatch, tcpblk flush, wire headers, emunet wakeups),
// and zip, multi and relay are idle. It is the smallest-message case,
// where a batching gain for bulk that adds latency would show.
var rpcSmall = &workloadDef{
	name:   "rpc-small",
	unit:   "round trip",
	flows:  2,
	stride: 64,
	params: map[string]any{
		"port_stack": "tcpblk", "payload_bytes": "64-512", "clients": 2,
		"method": estab.Splicing.String(),
		"sites":  "master: stateful firewall; workers: stateful firewall, compliant NAT", "relays": 1,
	},
	inputs: func(seed int64) []*corpus {
		return []*corpus{smallCorpus(256, 64, 512, seed), smallCorpus(256, 64, 512, seed+1)}
	},
	setup: setupRPC,
}

var rpcPort = ipl.PortType{Name: "rpc", Stack: "tcpblk"}

// rpcFlow is one worker's closed loop: requests go worker -> master on
// req, echoes come back master -> worker on rep.
type rpcFlow struct {
	flow             int
	c                *corpus
	reqSend, repSend ipl.SendPort
	reqRecv, repRecv ipl.ReceivePort
}

func setupRPC(env *setupEnv) (_ instance, err error) {
	w, err := newWorld(env, core.NewDeployment)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	master, err := w.join(w.dep.NodeConfig(w.host("fw-master", emunet.SiteConfig{Firewall: emunet.Stateful}), pool, "master"))
	if err != nil {
		return nil, err
	}
	sites := []emunet.SiteConfig{
		{Firewall: emunet.Stateful},
		{Firewall: emunet.Stateful, NAT: emunet.CompliantNAT},
	}
	r := &rpc{world: w, stopCh: make(stopSignal)}
	for i, site := range sites {
		worker, err := w.join(w.dep.NodeConfig(w.host(fmt.Sprintf("worker-site-%d", i), site), pool, fmt.Sprintf("worker-%d", i)))
		if err != nil {
			return nil, err
		}
		f := &rpcFlow{flow: i, c: env.inputs[i]}
		req, rep := fmt.Sprintf("req-%d", i), fmt.Sprintf("rep-%d", i)
		if f.reqRecv, err = w.receivePort(master, rpcPort, req); err != nil {
			return nil, err
		}
		if f.repRecv, err = w.receivePort(worker, rpcPort, rep); err != nil {
			return nil, err
		}
		if f.reqSend, err = w.connect(worker, rpcPort, req, estab.Splicing); err != nil {
			return nil, err
		}
		if f.repSend, err = w.connect(master, rpcPort, rep, estab.Splicing); err != nil {
			return nil, err
		}
		r.flows = append(r.flows, f)
	}
	return r, nil
}

type rpc struct {
	*world
	flows   []*rpcFlow
	stopCh  stopSignal
	clients sync.WaitGroup
	echoes  sync.WaitGroup
	epoch   time.Time
	errs    firstError
}

func (r *rpc) start(l *load) {
	r.epoch = time.Now()
	for _, f := range r.flows {
		r.clients.Add(1)
		r.echoes.Add(1)
		go r.client(l, f)
		go r.echo(l, f)
	}
}

func (r *rpc) stop() error {
	close(r.stopCh)
	// Closing the receive ports ends a round trip caught half way and
	// unblocks a client whose echo side has failed.
	for _, f := range r.flows {
		f.repRecv.Close()
		f.reqRecv.Close()
	}
	if err := waitFor(&r.clients, "rpc clients"); err != nil {
		return err
	}
	if err := waitFor(&r.echoes, "rpc echo servers"); err != nil {
		return err
	}
	return r.errs.get()
}

// client runs one worker's closed loop and verifies every echo.
func (r *rpc) client(l *load, f *rpcFlow) {
	defer r.clients.Done()
	slot := fmt.Sprintf("flow%d-client", f.flow)
	for seq := uint64(0); !r.stopCh.stopping(); seq++ {
		ph := l.phase()
		ot := ph.tr.begin(slot, spanOp, opID(f.flow, seq))
		payload, sum := f.c.payload(seq)
		t0 := time.Now()
		req := message{flow: int64(f.flow), seq: seq, sentNs: t0.Sub(r.epoch).Nanoseconds(), sum: sum, payload: payload}
		err := send(ot, f.reqSend, req)
		var echo message
		if err == nil {
			echo, err = receive(ot, f.repRecv)
		}
		if err != nil {
			ot.finish()
			if !r.stopCh.stopping() {
				l.failed.Add(1)
			}
			return
		}
		r.env.tamper.apply(&echo, f.c)
		i := ot.start(spanVerify)
		if echo.flow != req.flow || echo.seq != req.seq || echo.sum != req.sum || !bytes.Equal(echo.payload, payload) {
			err = fmt.Errorf("%w: flow %d seq %d came back as flow %d seq %d", errWrongEcho, f.flow, seq, echo.flow, echo.seq)
		}
		ot.end(i)
		ot.finish()
		if err != nil {
			r.errs.set(err)
			return
		}
		ph.record(f.flow, time.Since(t0))
		l.bytes.Add(int64(len(payload)))
		l.ops.Add(1)
	}
}

// echo is the master's side of one flow: it verifies each request and
// sends it back unchanged.
func (r *rpc) echo(l *load, f *rpcFlow) {
	defer r.echoes.Done()
	slot := fmt.Sprintf("flow%d-echo", f.flow)
	v := &verifier{c: f.c, flow: fmt.Sprint(f.flow)}
	for seq := uint64(0); ; seq++ {
		ot := l.phase().tr.join(slot, opID(f.flow, seq))
		msg, err := receive(ot, f.reqRecv)
		if err != nil {
			if !r.stopCh.stopping() {
				l.failed.Add(1)
			}
			return
		}
		i := ot.start(spanVerify)
		err = v.check(msg)
		ot.end(i)
		if err != nil {
			r.errs.set(err)
			return
		}
		if err := send(ot, f.repSend, msg); err != nil {
			if !r.stopCh.stopping() {
				l.failed.Add(1)
			}
			return
		}
	}
}

// send encodes msg into a new message on sp and finishes it, tracing
// each call.
func send(ot opTrace, sp ipl.SendPort, msg message) error {
	i := ot.start(spanNewMessage)
	m, err := sp.NewMessage()
	ot.end(i)
	if err != nil {
		return err
	}
	i = ot.start(spanEncode)
	encode(m, msg)
	ot.end(i)
	i = ot.start(spanFinish)
	err = m.Finish()
	ot.end(i)
	return err
}

// receive takes the next message off rp and decodes it, tracing each
// call.
func receive(ot opTrace, rp ipl.ReceivePort) (message, error) {
	i := ot.start(spanReceive)
	rm, err := rp.Receive()
	ot.end(i)
	if err != nil {
		return message{}, err
	}
	i = ot.start(spanDecode)
	msg, err := decode(rm)
	ot.end(i)
	return msg, err
}
