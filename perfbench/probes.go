package main

// Isolation probes: each calls one layer's public functions on the
// run's seeded inputs, with nothing else in the path, so a per-layer
// figure moves only when that layer does. They run in traced mode only.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"sort"
	"time"

	"netibis/internal/driver"
	"netibis/internal/drivers/tcpblk"
	"netibis/internal/drivers/zip"
	"netibis/internal/emunet"
	"netibis/internal/identity"
	"netibis/internal/wire"
	"netibis/internal/workload"
)

// probeReps is how many times each probe repeats its work; it reports
// the median repetition.
const probeReps = 5

// memDriver is a bottom driver that writes into an in-memory
// connection, so that a filtering driver above it (zip) is measured
// alone.
const memDriver = "perfbench-mem"

func init() {
	driver.Register(memDriver, func(_ driver.Spec, env *driver.Env, lower func() (driver.Output, error)) (driver.Output, error) {
		if lower != nil {
			return nil, errors.New(memDriver + ": must be the bottom driver")
		}
		conn, err := env.Dial()
		if err != nil {
			return nil, err
		}
		return memOutput{conn}, nil
	}, func(driver.Spec, *driver.Env, func() (driver.Input, error)) (driver.Input, error) {
		return nil, errors.New(memDriver + ": output only")
	})
}

type memOutput struct{ net.Conn }

func (memOutput) Flush() error { return nil }

// memConn is a net.Conn whose writes collect in w and whose reads come
// from r.
type memConn struct {
	w bytes.Buffer
	r *bytes.Reader
}

func readConn(p []byte) *memConn { return &memConn{r: bytes.NewReader(p)} }

func (c *memConn) Read(p []byte) (int, error) {
	if c.r == nil {
		return 0, io.EOF
	}
	return c.r.Read(p)
}
func (c *memConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// allocObjects is the process's cumulative heap allocation count.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e6 }

func concat(c *corpus) []byte {
	var b []byte
	for _, p := range c.payloads {
		b = append(b, p...)
	}
	return b
}

// repeat runs f probeReps times and returns the median of each of its
// results.
func repeat(n int, f func() ([]float64, error)) ([]float64, error) {
	var runs [][]float64
	for i := 0; i < probeReps; i++ {
		r, err := f()
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	out := make([]float64, n)
	for j := range out {
		var col []float64
		for _, r := range runs {
			col = append(col, r[j])
		}
		out[j] = median(col)
	}
	return out, nil
}

// layerProbes runs every isolation probe on inputs made from seed and
// returns the per-layer metrics they give.
func layerProbes(seed int64) (map[string]float64, error) {
	grid := bulkCorpus(workload.Grid, bulkCorpusMsgs, bulkMsg, seed)
	random := bulkCorpus(workload.Random, bulkCorpusMsgs, bulkMsg, seed)
	small := smallCorpus(256, 64, 512, seed)
	m := map[string]float64{}
	steps := []struct {
		name string
		run  func() error
	}{
		{"zip", func() error {
			r, err := repeat(4, func() ([]float64, error) { return probeZip(grid) })
			if err != nil {
				return err
			}
			m["zip.compress_mbps"], m["zip.decompress_mbps"], m["zip.ratio"], m["zip.allocs_per_block"] = r[0], r[1], r[2], r[3]
			r, err = repeat(1, func() ([]float64, error) { return probeZip(random) })
			if err != nil {
				return err
			}
			m["zip.stored_mbps"] = r[0]
			return nil
		}},
		{"multi", func() error {
			r, err := repeat(2, func() ([]float64, error) { return probeMulti(grid) })
			if err != nil {
				return err
			}
			m["multi.mbps"], m["multi.allocs_per_msg"] = r[0], r[1]
			return nil
		}},
		{"identity", func() error {
			r, err := repeat(2, func() ([]float64, error) { return probeIdentity(random) })
			if err != nil {
				return err
			}
			m["identity.seal_mbps"], m["identity.open_mbps"] = r[0], r[1]
			return nil
		}},
		{"tcpblk", func() error {
			r, err := repeat(1, func() ([]float64, error) { return probeTCPBlk(small, 64) })
			if err != nil {
				return err
			}
			m["tcpblk.ns_per_msg_small"] = r[0]
			r, err = repeat(2, func() ([]float64, error) { return probeTCPBlk(grid, 1) })
			if err != nil {
				return err
			}
			m["tcpblk.mbps_64k"] = r[1]
			return nil
		}},
		{"wire", func() error {
			r, err := repeat(2, func() ([]float64, error) { return probeWire(small, 64) })
			if err != nil {
				return err
			}
			m["wire.encode_ns_small"], m["wire.decode_ns_small"] = r[0], r[1]
			r, err = repeat(2, func() ([]float64, error) { return probeWire(grid, 1) })
			if err != nil {
				return err
			}
			m["wire.encode_ns_64k"], m["wire.decode_ns_64k"] = r[0], r[1]
			return nil
		}},
		{"emunet", func() error {
			r, err := repeat(2, func() ([]float64, error) { return probeEmunet(grid, small, seed) })
			if err != nil {
				return err
			}
			m["emunet.mbps_64k"], m["emunet.rtt_ns_small"] = r[0], r[1]
			return nil
		}},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	return m, nil
}

// probeZip compresses the corpus message by message through the zip
// driver as a port would (Write, then Flush per message) and
// decompresses it again. It returns compress MB/s, decompress MB/s,
// ratio and allocations per compressed block.
func probeZip(c *corpus) ([]float64, error) {
	stack, err := driver.ParseStack("zip:codec=lz/" + memDriver)
	if err != nil {
		return nil, err
	}
	mc := &memConn{}
	mc.w.Grow(2 * len(c.payloads) * len(c.payloads[0]))
	out, err := driver.BuildOutput(stack, driver.SingleConnEnv(mc))
	if err != nil {
		return nil, err
	}
	zo, ok := out.(*zip.Output)
	if !ok {
		return nil, fmt.Errorf("zip stack built a %T", out)
	}
	total := 0
	a0 := allocObjects()
	t0 := time.Now()
	for _, p := range c.payloads {
		if _, err := out.Write(p); err != nil {
			return nil, err
		}
		if err := out.Flush(); err != nil {
			return nil, err
		}
		total += len(p)
	}
	dc := time.Since(t0)
	allocs := allocObjects() - a0
	in, wireBytes, blocks := zo.Stats()
	if err := out.Close(); err != nil {
		return nil, err
	}
	got := make([]byte, total)
	zin := zip.NewInput(readConn(mc.w.Bytes()))
	t1 := time.Now()
	if _, err := io.ReadFull(zin, got); err != nil {
		return nil, err
	}
	dd := time.Since(t1)
	if !bytes.Equal(got, concat(c)) {
		return nil, errCorrupt
	}
	return []float64{mbps(total, dc), mbps(total, dd), float64(in) / float64(wireBytes), float64(allocs) / float64(blocks)}, nil
}

// probeMulti stripes the corpus over two tcpblk sub-streams on
// in-memory pipes and reassembles it. It returns MB/s and allocations
// per message.
func probeMulti(c *corpus) ([]float64, error) {
	stack, err := driver.ParseStack("multi:streams=2/tcpblk")
	if err != nil {
		return nil, err
	}
	dialer, acceptor := driver.PipeEnv()
	type built struct {
		in  driver.Input
		err error
	}
	inCh := make(chan built, 1)
	go func() {
		in, err := driver.BuildInput(stack, acceptor)
		inCh <- built{in, err}
	}()
	out, err := driver.BuildOutput(stack, dialer)
	if err != nil {
		return nil, err
	}
	b := <-inCh
	if b.err != nil {
		out.Close()
		return nil, b.err
	}
	want := concat(c)
	readErr := make(chan error, 1)
	go func() {
		got := make([]byte, len(want))
		_, err := io.ReadFull(b.in, got)
		if err == nil && !bytes.Equal(got, want) {
			err = errCorrupt
		}
		readErr <- err
	}()
	a0 := allocObjects()
	t0 := time.Now()
	for _, p := range c.payloads {
		if _, err = out.Write(p); err != nil {
			break
		}
		if err = out.Flush(); err != nil {
			break
		}
	}
	if err == nil {
		err = <-readErr
	}
	d := time.Since(t0)
	allocs := allocObjects() - a0
	out.Close()
	b.in.Close()
	if err != nil {
		return nil, err
	}
	return []float64{mbps(len(want), d), float64(allocs) / float64(len(c.payloads))}, nil
}

// probeIdentity seals and opens every corpus message as one 64 KiB
// link record. It returns seal MB/s and open MB/s.
func probeIdentity(c *corpus) ([]float64, error) {
	ca, err := identity.NewAuthority()
	if err != nil {
		return nil, err
	}
	a, err := ca.Issue("probe/a")
	if err != nil {
		return nil, err
	}
	b, err := ca.Issue("probe/b")
	if err != nil {
		return nil, err
	}
	ts := ca.TrustStore()
	offer, err := identity.OfferLink(a, "probe/a", "probe/b", 1)
	if err != nil {
		return nil, err
	}
	kb, answer, err := identity.AcceptLink(b, ts, "probe/a", "probe/b", 1, offer.Blob())
	if err != nil {
		return nil, err
	}
	ka, err := offer.CompleteLink(ts, answer)
	if err != nil {
		return nil, err
	}
	total := 0
	records := make([][]byte, len(c.payloads))
	for i, p := range c.payloads {
		records[i] = make([]byte, 0, len(p)+identity.SealOverhead)
		total += len(p)
	}
	t0 := time.Now()
	for i, p := range c.payloads {
		records[i] = ka.Seal(records[i], uint64(i+1), p)
	}
	ds := time.Since(t0)
	dst := make([]byte, 0, bulkMsg)
	var opened time.Duration
	for i, rec := range records {
		t1 := time.Now()
		pt, seq, err := kb.Open(dst[:0], rec)
		opened += time.Since(t1)
		if err != nil {
			return nil, err
		}
		if seq != uint64(i+1) || !bytes.Equal(pt, c.payloads[i]) {
			return nil, errCorrupt
		}
	}
	return []float64{mbps(total, ds), mbps(total, opened)}, nil
}

// probeTCPBlk writes the corpus, reps times over, through a tcpblk
// output (Write and Flush per message) into memory and reads it back
// through a tcpblk input. It returns ns per message and MB/s.
func probeTCPBlk(c *corpus, reps int) ([]float64, error) {
	var want []byte
	for r := 0; r < reps; r++ {
		want = append(want, concat(c)...)
	}
	mc := &memConn{}
	mc.w.Grow(2 * len(want))
	out := tcpblk.NewOutput(mc, 0)
	n := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range c.payloads {
			if _, err := out.Write(p); err != nil {
				return nil, err
			}
			if err := out.Flush(); err != nil {
				return nil, err
			}
			n++
		}
	}
	dw := time.Since(t0)
	in := tcpblk.NewInput(readConn(mc.w.Bytes()))
	got := make([]byte, len(want))
	t1 := time.Now()
	if _, err := io.ReadFull(in, got); err != nil {
		return nil, err
	}
	d := dw + time.Since(t1)
	if !bytes.Equal(got, want) {
		return nil, errCorrupt
	}
	return []float64{float64(d.Nanoseconds()) / float64(n), mbps(len(want), d)}, nil
}

// probeWire encodes the corpus, reps times over, as data frames and
// decodes them again. It returns ns per frame to encode and to decode.
func probeWire(c *corpus, reps int) ([]float64, error) {
	var buf bytes.Buffer
	buf.Grow(2 * reps * len(concat(c)))
	fw := wire.NewWriter(&buf)
	n := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range c.payloads {
			if err := fw.WriteFrame(wire.KindData, 0, p); err != nil {
				return nil, err
			}
			n++
		}
	}
	de := time.Since(t0)
	fr := wire.NewReader(bytes.NewReader(buf.Bytes()))
	t1 := time.Now()
	for i := 0; i < n; i++ {
		_, _, b, err := fr.ReadFrameBuf()
		if err != nil {
			return nil, err
		}
		ok := bytes.Equal(b.Bytes(), c.payloads[i%len(c.payloads)])
		b.Release()
		if !ok {
			return nil, errCorrupt
		}
	}
	dd := time.Since(t1)
	return []float64{float64(de.Nanoseconds()) / float64(n), float64(dd.Nanoseconds()) / float64(n)}, nil
}

// emunetPings is the number of small round trips the emunet probe
// times.
const emunetPings = 4096

// probeEmunet streams the bulk corpus over one emulated connection
// between a stateful-firewall site and an open site (Host.Dial to a
// Host.Listen listener), then ping-pongs small messages on it. It
// returns MB/s and the median round trip in ns.
func probeEmunet(bulk, small *corpus, seed int64) ([]float64, error) {
	f := emunet.NewFabric(emunet.WithSeed(seed), emunet.WithTimeScale(0))
	defer f.Close()
	client := f.AddSite("probe-client", emunet.SiteConfig{Firewall: emunet.Stateful}).AddHost("client")
	server := f.AddSite("probe-server", emunet.SiteConfig{Firewall: emunet.Open}).AddHost("server")
	ln, err := server.Listen(7000)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	want := concat(bulk)
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			srvErr <- err
			return
		}
		if !bytes.Equal(got, want) {
			srvErr <- errCorrupt
			return
		}
		srvErr <- nil
		buf := make([]byte, 512)
		for i := 0; i < emunetPings; i++ {
			p, _ := small.payload(uint64(i))
			if _, err := io.ReadFull(conn, buf[:len(p)]); err != nil {
				return
			}
			if _, err := conn.Write(buf[:len(p)]); err != nil {
				return
			}
		}
	}()
	conn, err := client.Dial(emunet.Endpoint{Addr: server.Address(), Port: 7000})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	t0 := time.Now()
	for _, p := range bulk.payloads {
		if _, err := conn.Write(p); err != nil {
			return nil, err
		}
	}
	if err := <-srvErr; err != nil {
		return nil, err
	}
	d := time.Since(t0)
	rtts := make([]float64, 0, emunetPings)
	buf := make([]byte, 512)
	for i := 0; i < emunetPings; i++ {
		p, _ := small.payload(uint64(i))
		t1 := time.Now()
		if _, err := conn.Write(p); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(conn, buf[:len(p)]); err != nil {
			return nil, err
		}
		rtts = append(rtts, float64(time.Since(t1).Nanoseconds()))
		if !bytes.Equal(buf[:len(p)], p) {
			return nil, errCorrupt
		}
	}
	sort.Float64s(rtts)
	return []float64{mbps(len(want), d), rtts[len(rtts)/2]}, nil
}
