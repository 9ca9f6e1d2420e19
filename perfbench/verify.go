package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"netibis/internal/core"
	"netibis/internal/estab"
	"netibis/internal/ipl"
	"netibis/internal/workload"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Verification failures. Any of them fails the run.
var (
	errCorrupt    = errors.New("payload corrupted")
	errMisordered = errors.New("message out of order")
	errWrongEcho  = errors.New("echo does not match its request")
	errMethod     = errors.New("link established by an unexpected method")
)

// corpus is a workload's seeded message payloads. Message seq carries
// payload seq%len and its checksum, so a receiver knows what each
// message must contain without any shared state with the sender.
type corpus struct {
	payloads [][]byte
	sums     []uint32
}

// bulkCorpus cuts count messages of size bytes out of one seeded
// workload.Generate stream of the given kind.
func bulkCorpus(kind workload.Kind, count, size int, seed int64) *corpus {
	data := workload.Generate(kind, count*size, seed)
	c := &corpus{}
	for i := 0; i < count; i++ {
		c.add(data[i*size : (i+1)*size])
	}
	return c
}

// smallCorpus makes count messages of seeded bytes whose lengths are
// spread evenly over [min, max] in seeded order, so that every seed
// sends the same mix of sizes.
func smallCorpus(count, min, max int, seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{}
	for _, i := range rng.Perm(count) {
		p := make([]byte, min+i*(max-min)/(count-1))
		rng.Read(p)
		c.add(p)
	}
	return c
}

func (c *corpus) add(p []byte) {
	c.payloads = append(c.payloads, p)
	c.sums = append(c.sums, checksum(p))
}

func (c *corpus) payload(seq uint64) ([]byte, uint32) {
	i := seq % uint64(len(c.payloads))
	return c.payloads[i], c.sums[i]
}

// message is the benchmark's typed message: every workload sends its
// flow, sequence number, send time, payload checksum and payload
// through the IPL serialization.
type message struct {
	flow    int64
	seq     uint64
	sentNs  int64
	sum     uint32
	payload []byte
}

func encode(m *ipl.WriteMessage, msg message) {
	m.WriteInt(msg.flow).WriteInt(int64(msg.seq)).WriteInt(msg.sentNs).
		WriteInt(int64(msg.sum)).WriteBytes(msg.payload)
}

func decode(rm *ipl.ReadMessage) (message, error) {
	var msg message
	var seq, sum int64
	var err error
	if msg.flow, err = rm.ReadInt(); err != nil {
		return msg, err
	}
	if seq, err = rm.ReadInt(); err != nil {
		return msg, err
	}
	if msg.sentNs, err = rm.ReadInt(); err != nil {
		return msg, err
	}
	if sum, err = rm.ReadInt(); err != nil {
		return msg, err
	}
	if msg.payload, err = rm.ReadBytes(); err != nil {
		return msg, err
	}
	msg.seq, msg.sum = uint64(seq), uint32(sum)
	return msg, rm.Finish()
}

// verifier checks one flow's messages at the receiving end: they must
// arrive in sequence, and each must carry exactly its seeded payload.
type verifier struct {
	c    *corpus
	flow string
	next uint64
}

// check verifies msg and advances the expected sequence number.
func (v *verifier) check(msg message) error {
	if msg.seq != v.next {
		return fmt.Errorf("%w: flow %s got seq %d, want %d", errMisordered, v.flow, msg.seq, v.next)
	}
	if err := v.c.checkPayload(msg); err != nil {
		return fmt.Errorf("flow %s: %w", v.flow, err)
	}
	v.next++
	return nil
}

// checkPayload verifies that msg carries the payload its sequence
// number selects, checksum and bytes both.
func (c *corpus) checkPayload(msg message) error {
	_, want := c.payload(msg.seq)
	if msg.sum != want || checksum(msg.payload) != want {
		return fmt.Errorf("%w: seq %d", errCorrupt, msg.seq)
	}
	return nil
}

// checkMethod verifies that sp's single link was established by want.
func checkMethod(sp ipl.SendPort, want estab.Method) error {
	for peer, got := range core.SendPortMethods(sp) {
		if got != want {
			return fmt.Errorf("%w: to %s by %v, want %v", errMethod, peer, got, want)
		}
	}
	return nil
}

// tamper is a fault the tests inject at the receiving end to prove that
// the verifiers fail the run. The benchmark command never sets it.
type tamper int

const (
	tamperNone tamper = iota
	tamperFlipByte
	tamperReorder
	tamperWrongMethod
)

// tamperSeq is the message the tamper hits.
const tamperSeq = 3

// apply corrupts msg in the way t describes, when msg is the target:
// tamperReorder turns it into the next message of the flow, payload and
// all, as if that one had overtaken it.
func (t tamper) apply(msg *message, c *corpus) {
	if msg.seq != tamperSeq {
		return
	}
	switch t {
	case tamperFlipByte:
		msg.payload[len(msg.payload)/2] ^= 0x20
	case tamperReorder:
		msg.seq++
		msg.payload, msg.sum = c.payload(msg.seq)
	}
}

// expect returns the method a verifier should require, swapped for a
// wrong one under tamperWrongMethod.
func (t tamper) expect(m estab.Method) estab.Method {
	if t == tamperWrongMethod {
		if m == estab.Routed {
			return estab.ClientServer
		}
		return estab.Routed
	}
	return m
}
