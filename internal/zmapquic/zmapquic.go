// Package zmapquic is the stateless QUIC discovery scanner — the Go
// equivalent of the paper's ZMap module (Section 3.1). It sends
// draft-conform Initial packets carrying a reserved 0x?a?a?a?a version
// to force a Version Negotiation response, requiring no cryptography
// at the scanner: the server must process the unsupported version
// before anything else and reply with its supported version list.
//
// Like ZMap, the scanner is stateless: a probe's two connection IDs are
// one AES block, the target address encrypted under a per-Scanner key,
// so responses can be verified without per-target state, and senders
// share nothing mutable: SendProbe is a leased buffer and one send.
package zmapquic

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/pcap"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
)

// Registry metrics for the stateless discovery layer (the zmapquic_*
// family). The gauge tracks the configured probe rate so the exporter
// shows pacing alongside observed throughput.
var (
	mProbesSent   = telemetry.Default().Counter("zmapquic_probes_sent_total")
	mProbeBytes   = telemetry.Default().Counter("zmapquic_probe_bytes_total")
	mReprobes     = telemetry.Default().Counter("zmapquic_reprobes_total")
	mResponses    = telemetry.Default().Counter("zmapquic_responses_total")
	mInvalidResp  = telemetry.Default().Counter("zmapquic_invalid_responses_total")
	mBlocked      = telemetry.Default().Counter("zmapquic_blocked_total")
	mRateGauge    = telemetry.Default().Gauge("zmapquic_probe_rate_limit")
	mVNByVersions = telemetry.Default().CounterVec("zmapquic_vn_responses_total", "version")

	// Batch-path metrics: flushes counts WriteBatch calls (one syscall
	// each on the Linux path), batchProbes the datagrams they carried,
	// so batchProbes/flushes is the realized amortization. fallback
	// counts flushes that went through a one-datagram-per-call conn.
	mBatchFlushes  = telemetry.Default().Counter("zmapquic_batch_flushes_total")
	mBatchProbes   = telemetry.Default().Counter("zmapquic_batch_probes_total")
	mBatchFallback = telemetry.Default().Counter("zmapquic_batch_fallback_total")
	mBatchSize     = telemetry.Default().Histogram("zmapquic_batch_size",
		[]float64{1, 2, 4, 8, 16, 32, 64})
)

// recvBufPool recycles the response collection buffers across scan
// passes.
var recvBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65536)
		return &b
	},
}

// ProbeSize is the padded probe size: the 1200-byte minimum Initial
// datagram (RFC 9000, Section 14.1).
const ProbeSize = quicwire.MinInitialSize

// SendBatchSize is how many templated probes the scan loop hands to
// one WriteBatch (one sendmmsg on Linux). 64 matches what high-rate
// UDP scanners use: large enough to amortize the kernel crossing to
// noise, small enough that a batch is a sub-millisecond pacing quantum
// even at modest rates.
const SendBatchSize = 64

// recvBatchSize is how many responses one ReadBatch may drain. The
// response rate is a fraction of the probe rate (the paper saw ~2.3%
// of the IPv4 sweep answer), so the read batch stays smaller.
const recvBatchSize = 32

// Scanner performs stateless version negotiation scans.
type Scanner struct {
	// Conn is the shared scanning socket.
	Conn net.PacketConn
	// Port is the target UDP port (default 443).
	Port uint16
	// Rate limits probes per second (0 = unlimited).
	Rate int
	// Cooldown is how long to keep collecting responses after the last
	// probe (default 1s; ZMap's --cooldown-secs).
	Cooldown time.Duration
	// NoPadding sends 64-byte probes instead of 1200-byte ones: the
	// paper's Section 3.1 ablation, which only 11.3% of addresses
	// answer.
	NoPadding bool
	// Blocklist excludes address ranges from probing (the ethics
	// measure of the paper's Appendix A). Nil blocks nothing.
	Blocklist *Blocklist
	// Capture, when non-nil, records every probe and every (valid or
	// invalid) response as synthesized IP/UDP packets — the raw-data
	// artifact the paper archives.
	Capture *pcap.Writer
	// Retries is the number of additional passes ScanAddrs makes over
	// targets that stayed silent, ZMap's loss-tolerance measure: a
	// probe or response lost in transit is indistinguishable from a
	// dead host, so silent addresses are re-probed before being
	// declared unresponsive. 0 means a single pass.
	Retries int

	// ids is AES-128 under a random key and keys probe validation; a
	// cipher.Block holds no mutable state, so the senders and the
	// response validator share it.
	ids     cipher.Block
	idsOnce sync.Once

	// tmpl is the precomputed probe wire image, immutable once built;
	// only the 8-byte CID fields at probeDCIDOff/probeSCIDOff vary
	// per target. Each scan pass patches them into its own copy.
	tmpl     []byte
	tmplOnce sync.Once

	// bc is the batch view of Conn, resolved once: native for simnet,
	// sendmmsg/recvmmsg for real Linux sockets, a WriteTo loop
	// elsewhere.
	bc        netbatch.BatchConn
	bcKind    netbatch.Kind
	batchOnce sync.Once

	// batchPool recycles send batches — SendBatchSize template copies
	// plus their message headers — across scan passes and SendProbe
	// calls.
	batchPool sync.Pool
}

// batchConn resolves (and caches) the batch implementation for Conn.
func (s *Scanner) batchConn() (netbatch.BatchConn, netbatch.Kind) {
	s.batchOnce.Do(func() {
		s.bc, s.bcKind = netbatch.Wrap(s.Conn)
	})
	return s.bc, s.bcKind
}

// sendBatch is one pooled set of probe buffers: each message's Buf is
// a private template copy whose CID bytes are rewritten per target, so a
// full batch needs zero allocations and zero template re-copies. A
// batch belongs to whoever leased it until it goes back to the pool.
type sendBatch struct {
	msgs [SendBatchSize]netbatch.Message
	// ids is probeSum's scratch while fill patches a slot.
	ids idScratch
}

func (s *Scanner) leaseSendBatch() *sendBatch {
	if v := s.batchPool.Get(); v != nil {
		return v.(*sendBatch)
	}
	b := &sendBatch{}
	tmpl := s.template()
	for i := range b.msgs {
		b.msgs[i].Buf = append([]byte(nil), tmpl...)
		b.msgs[i].N = len(tmpl)
	}
	return b
}

// flush hands the first n probes of b to the socket in one WriteBatch
// (one sendmmsg on the Linux path) and counts the batch: every probe
// this package sends goes through here. The caller counts the probes
// that left, as its owner's (ScanAddrs) or the registry's (SendProbe).
// A partial send drops the tail — probe loss is inherent to the scan
// model, so the caller reports it (SendProbe) or leaves it to a
// re-probe pass (ScanAddrs) and nothing is retried.
func (s *Scanner) flush(b *sendBatch, n int) (sent int, err error) {
	if n == 0 {
		return 0, nil
	}
	bc, kind := s.batchConn()
	sent, err = bc.WriteBatch(b.msgs[:n])
	mBatchFlushes.Inc()
	mBatchSize.Observe(float64(n))
	if kind == netbatch.KindFallback {
		mBatchFallback.Inc()
	}
	if sent > 0 {
		if s.Capture != nil {
			for i := range b.msgs[:sent] {
				m := &b.msgs[i]
				s.Capture.WriteUDP(time.Now(), s.localAddrPort(m.Addr.Addr()), m.Addr, m.Buf[:m.N])
			}
		}
		mBatchProbes.Add(uint64(sent))
	}
	return sent, err
}

// errProbeDropped reports a probe the socket did not take. Per the
// WriteBatch contract a short send always carries the cause, so this
// only backstops a conn that violates it.
var errProbeDropped = errors.New("zmapquic: probe dropped by the socket")

// Fixed probe layout offsets: 1 byte header, 4 bytes version, then
// length-prefixed 8-byte destination and source connection IDs.
const (
	probeDCIDOff = 6
	probeSCIDOff = probeDCIDOff + 8 + 1
)

// idScratch is the input and output block of one ID derivation. The
// arguments of an interface method escape, so it lives on the heap: in
// the leased batch when sending, in idScratchPool otherwise.
type idScratch struct{ in, out [aes.BlockSize]byte }

var idScratchPool = sync.Pool{New: func() any { return new(idScratch) }}

// Result is one responding address.
type Result struct {
	Addr     netip.Addr
	Versions []quicwire.Version
}

// Stats summarizes one ScanAddrs call. Its counts are the only count of
// the call's events: the registry reads them while the call runs and
// adds them to zmapquic_probes_sent_total, zmapquic_responses_total and
// the rest of the family when it returns.
type Stats struct {
	ProbesSent       int
	BytesSent        int64
	Responses        int
	InvalidResponses int
	// Blocked counts targets skipped due to the blocklist.
	Blocked int
	// Reprobes counts probes sent in second and later passes over
	// silent targets (included in ProbesSent).
	Reprobes int
}

// sendCounts is a list scan's count of what it sent and skipped while
// it runs. Registry.Attach reads it; its collectors count the answers.
type sendCounts struct {
	probes, bytes, blocked, reprobes atomic.Uint64
}

func (c *sendCounts) read(rd *telemetry.Reading) {
	rd.Count(mProbesSent, c.probes.Load())
	rd.Count(mProbeBytes, c.bytes.Load())
	rd.Count(mBlocked, c.blocked.Load())
	rd.Count(mReprobes, c.reprobes.Load())
}

func (s *Scanner) port() uint16 {
	if s.Port == 0 {
		return 443
	}
	return s.Port
}

func (s *Scanner) cooldown() time.Duration {
	if s.Cooldown == 0 {
		return time.Second
	}
	return s.Cooldown
}

// probeSum derives addr's probe IDs into scratch without allocating and
// returns them: bytes 0-7 are the probe's destination connection ID,
// bytes 8-15 its source ID. They are the AES-128 encryption of the
// address's 16-byte form under this Scanner's key, so an address and
// its IPv4-mapped form share their IDs, distinct addresses never do,
// and without the key the IDs of one address say nothing about
// another's.
func (s *Scanner) probeSum(addr netip.Addr, scratch *idScratch) []byte {
	s.idsOnce.Do(func() {
		var key [aes.BlockSize]byte
		if _, err := rand.Read(key[:]); err != nil {
			panic("zmapquic: reading randomness: " + err.Error())
		}
		s.ids, _ = aes.NewCipher(key[:]) // a 16-byte key is always valid
	})
	scratch.in = addr.As16()
	s.ids.Encrypt(scratch.out[:], scratch.in[:])
	return scratch.out[:]
}

// template lazily builds the probe wire image shared by every target:
// header, forced-negotiation version, CID length prefixes, empty
// token, length field, and padding. Only the CID bytes differ per
// target.
func (s *Scanner) template() []byte {
	s.tmplOnce.Do(func() {
		size := ProbeSize
		if s.NoPadding {
			size = 64
		}
		b := make([]byte, 0, size)
		b = append(b, 0xc0|0x40) // long header, fixed bit, type Initial
		v := quicwire.ForcedNegotiationVersion
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		b = append(b, 8) // dcid length
		b = append(b, make([]byte, 8)...)
		b = append(b, 8) // scid length
		b = append(b, make([]byte, 8)...)
		b = append(b, 0) // empty token
		// Length field covering the rest of the datagram.
		rest := size - len(b) - 2
		b = quicwire.AppendVarintWithLen(b, uint64(rest), 2)
		b = append(b, make([]byte, size-len(b))...)
		s.tmpl = b
	})
	return s.tmpl
}

// fill makes m, a template copy, the probe for addr: its connection IDs
// and its destination, IPv4-mapped addresses in their IPv4 form. The
// senders reuse pooled copies for every target — the only per-probe work
// is one AES block and two 8-byte copies.
func (s *Scanner) fill(m *netbatch.Message, addr netip.Addr, scratch *idScratch) {
	addr = addr.Unmap()
	ids := s.probeSum(addr, scratch)
	copy(m.Buf[probeDCIDOff:probeDCIDOff+8], ids[0:8])
	copy(m.Buf[probeSCIDOff:probeSCIDOff+8], ids[8:16])
	m.Addr = netip.AddrPortFrom(addr, s.port())
}

// BuildProbe constructs the forced-VN Initial for a target. The
// packet has a valid long header but deliberately unencrypted,
// padding-only content: the server must respond to the unknown
// version before parsing further (saving the scanner all Initial
// cryptography, as in the paper's module). The returned slice is a
// fresh copy of the shared template; the scan loop itself patches a
// reused copy instead.
func (s *Scanner) BuildProbe(addr netip.Addr) []byte {
	m := netbatch.Message{Buf: append([]byte(nil), s.template()...)}
	scratch := idScratchPool.Get().(*idScratch)
	s.fill(&m, addr, scratch)
	idScratchPool.Put(scratch)
	return m.Buf
}

// ValidateResponse checks a datagram received from addr and returns
// the advertised versions if it is a well-formed Version Negotiation
// answering our probe.
func (s *Scanner) ValidateResponse(addr netip.Addr, pkt []byte) ([]quicwire.Version, bool) {
	hdr, _, err := quicwire.ParseLongHeader(pkt)
	if err != nil || hdr.Type != quicwire.PacketVersionNegotiation {
		return nil, false
	}
	scratch := idScratchPool.Get().(*idScratch)
	ids := s.probeSum(addr, scratch)
	// Invariants: the response's destination is our source ID and its
	// source is our destination ID. The conversions inside the
	// comparisons do not allocate.
	ok := string(hdr.DstID) == string(ids[8:16]) && string(hdr.SrcID) == string(ids[0:8])
	idScratchPool.Put(scratch)
	if !ok {
		return nil, false
	}
	return hdr.SupportedVersions, true
}

// SendProbe sends a single forced-VN probe to addr over the shared
// socket. It is safe for concurrent use and is the campaign engine's
// per-target hook: pacing, ordering and retries belong to the caller.
// sent is false when the blocklist excluded the target; a nil error
// with sent true means the datagram left the socket.
//
// Each call is its own send: a batch leased from the pool, one slot
// filled, one WriteBatch, nothing shared with the callers beside it but
// the socket. It returns after that WriteBatch did, which is what the
// campaign's journal and resume rely on. A probe has no scan to own
// its count here, so the registry's zmapquic_* series are the count.
func (s *Scanner) SendProbe(addr netip.Addr) (sent bool, err error) {
	if s.Blocklist.blocked(addr) {
		mBlocked.Inc()
		return false, nil
	}
	b := s.leaseSendBatch()
	s.fill(&b.msgs[0], addr, &b.ids)
	n, err := s.flush(b, 1)
	s.batchPool.Put(b)
	if n == 1 {
		mProbesSent.Inc()
		mProbeBytes.Add(uint64(len(s.template())))
		return true, nil
	}
	if err == nil {
		err = errProbeDropped
	}
	return false, err
}

// CollectResponsesOn runs the receive loop on conn until ctx is done,
// invoking fn for each validated Version Negotiation response
// (duplicates included; deduplication is the caller's concern), and
// returns how many datagrams it took as responses and how many failed
// validation. Those two counts are the run's own, and the registry
// reads them while it runs (zmapquic_responses_total,
// zmapquic_invalid_responses_total). It is the one response handler:
// Collect runs one per socket beside a sweep or a ScanAddrs pass.
//
// With SO_REUSEPORT-sharded receive sockets the kernel hashes inbound
// datagrams across the whole group, so a campaign must run one
// collector per group socket; conn must share the probe socket's
// port or validation will reject everything it reads.
func (s *Scanner) CollectResponsesOn(ctx context.Context, conn net.PacketConn, fn func(Result)) (responses, invalid int) {
	var nResp, nInvalid atomic.Uint64
	detach := telemetry.Default().Attach(func(rd *telemetry.Reading) {
		rd.Count(mResponses, nResp.Load())
		rd.Count(mInvalidResp, nInvalid.Load())
	})
	defer detach()
	stop := context.AfterFunc(ctx, func() {
		conn.SetReadDeadline(time.Now())
	})
	defer stop()
	// Datagrams are drained in batches (one recvmmsg per wakeup on
	// Linux) into pooled buffers until a read error (the deadline ctx
	// sets, or a close) ends the loop.
	bc, _ := netbatch.Wrap(conn)
	var msgs [recvBatchSize]netbatch.Message
	var leased [recvBatchSize]*[]byte
	for i := range msgs {
		leased[i] = recvBufPool.Get().(*[]byte)
		msgs[i].Buf = *leased[i]
	}
	defer func() {
		for i := range leased {
			recvBufPool.Put(leased[i])
		}
	}()
	for {
		got, err := bc.ReadBatch(msgs[:])
		if err != nil {
			break
		}
		for _, m := range msgs[:got] {
			if !m.Addr.IsValid() {
				continue
			}
			addr, pkt := m.Addr.Addr().Unmap(), m.Buf[:m.N]
			if s.Capture != nil {
				s.Capture.WriteUDP(time.Now(), netip.AddrPortFrom(addr, m.Addr.Port()), s.localAddrPort(addr), pkt)
			}
			versions, ok := s.ValidateResponse(addr, pkt)
			if !ok {
				nInvalid.Add(1)
				continue
			}
			nResp.Add(1)
			for _, v := range versions {
				mVNByVersions.With(v.String()).Inc()
			}
			fn(Result{Addr: addr, Versions: versions})
		}
	}
	if ctx.Err() != nil {
		conn.SetReadDeadline(time.Time{})
	}
	return int(nResp.Load()), int(nInvalid.Load())
}

// Collect is the receive side of a stateless scan around send, which
// probes through this Scanner: one CollectResponsesOn collector per
// socket of conns while send runs, then for Cooldown more, so that
// answers still in flight when the last probe left are heard. hit is
// called for the first valid response of each address, one call at a
// time. responses and invalid sum what the collectors returned.
//
// The cooldown belongs to a send that finished: when send fails or ctx
// ends, before or during the cooldown, Collect stops the collectors and
// returns the error at once. Every collector has exited when it
// returns.
func (s *Scanner) Collect(ctx context.Context, conns []net.PacketConn, send func(context.Context) error, hit func(Result)) (responses, invalid int, err error) {
	collectCtx, stop := context.WithCancel(ctx)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards seen and the sums, and serializes hit
		seen = make(map[netip.Addr]bool)
	)
	for _, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, i := s.CollectResponsesOn(collectCtx, conn, func(r Result) {
				mu.Lock()
				defer mu.Unlock()
				if !seen[r.Addr] {
					seen[r.Addr] = true
					hit(r)
				}
			})
			mu.Lock()
			responses += r
			invalid += i
			mu.Unlock()
		}()
	}
	err = send(ctx)
	if err == nil {
		select {
		case <-time.After(s.cooldown()):
		case <-ctx.Done():
			err = ctx.Err() // late answers went unheard: not a clean scan
		}
	}
	stop()
	wg.Wait()
	return responses, invalid, err
}

// ScanAddrs scans a slice of targets, making up to 1+Retries passes:
// addresses that answered an earlier pass are not re-probed, and
// blocked addresses are only counted once. Stats are the totals over
// all passes. On cancellation it returns ctx.Err() with what it has.
func (s *Scanner) ScanAddrs(ctx context.Context, addrs []netip.Addr) ([]Result, Stats, error) {
	var (
		results   []Result
		stats     Stats
		sent      sendCounts
		responded = make(map[netip.Addr]bool)
		limiter   = NewLimiter(s.Rate)
		err       error
	)
	detach := telemetry.Default().Attach(sent.read)
	mRateGauge.Set(int64(s.Rate))
	pending := addrs
	for pass := 0; pass <= s.Retries && len(pending) > 0; pass++ {
		before := sent.probes.Load()
		var responses, invalid int
		responses, invalid, err = s.scanPass(ctx, pending, limiter, &sent, func(r Result) {
			// A late answer to an earlier pass is a first sighting here.
			if !responded[r.Addr] {
				responded[r.Addr] = true
				results = append(results, r)
			}
		})
		stats.Responses += responses
		stats.InvalidResponses += invalid
		if pass > 0 {
			sent.reprobes.Add(sent.probes.Load() - before)
		}
		if err != nil {
			break
		}
		// The next pass re-probes only silent, probeable targets.
		var silent []netip.Addr
		for _, a := range pending {
			if !responded[a.Unmap()] && !s.Blocklist.blocked(a) {
				silent = append(silent, a)
			}
		}
		pending = silent
	}
	detach()
	stats.ProbesSent = int(sent.probes.Load())
	stats.BytesSent = int64(sent.bytes.Load())
	stats.Blocked = int(sent.blocked.Load())
	stats.Reprobes = int(sent.reprobes.Load())
	if err == nil {
		err = ctx.Err()
	}
	return results, stats, err
}

// scanPass probes every address of addrs once, counting into sent,
// inside Collect on the scanning socket.
func (s *Scanner) scanPass(ctx context.Context, addrs []netip.Addr, limiter *Limiter, sent *sendCounts, hit func(Result)) (responses, invalid int, err error) {
	return s.Collect(ctx, []net.PacketConn{s.Conn}, func(ctx context.Context) error {
		// Each admitted target is patched into the next slot of a pooled
		// batch; a full batch, or a pause for the next rate token, flushes.
		b := s.leaseSendBatch()
		n := 0
		flush := func() {
			k, _ := s.flush(b, n)
			sent.probes.Add(uint64(k))
			sent.bytes.Add(uint64(k * len(s.template())))
			n = 0
		}
		for _, addr := range addrs {
			// Cancellation is looked for between batches, and by Wait.
			if n == 0 && ctx.Err() != nil {
				break
			}
			if s.Blocklist.blocked(addr) {
				sent.blocked.Add(1)
				continue
			}
			if !limiter.tryTake() {
				// Out of tokens: flush what is buffered so pacing gaps
				// never sit on already-admitted probes, then block for
				// the next token.
				flush()
				if limiter.Wait(ctx) != nil {
					break
				}
			}
			s.fill(&b.msgs[n], addr, &b.ids)
			n++
			if n == SendBatchSize {
				flush()
				// An unpaced loop over a slice never blocks, so on one
				// core nothing else runs until the scheduler preempts it:
				// not the collector, not an in-process responder.
				// Meanwhile the socket's receive queue fills with the
				// answers of whoever did get to run, and drops every
				// later one. Give the core away once per batch, as a
				// kernel socket's sendmmsg would.
				runtime.Gosched()
			}
		}
		// Targets buffered at loop exit consumed rate tokens; send them.
		flush()
		s.batchPool.Put(b)
		return ctx.Err()
	}, hit)
}

// localAddrPort resolves the scanning socket's own address as the
// capture records it for traffic with peer. A socket bound to the
// wildcard ([::]:p, 0.0.0.0:p) has no address of its own, so the
// peer's family's unspecified address stands in for it.
func (s *Scanner) localAddrPort(peer netip.Addr) netip.AddrPort {
	var ap netip.AddrPort
	if ua, ok := s.Conn.LocalAddr().(*net.UDPAddr); ok {
		ap = ua.AddrPort()
	}
	if a := ap.Addr().Unmap(); a.IsValid() && !a.IsUnspecified() {
		return netip.AddrPortFrom(a, ap.Port())
	}
	if peer.Unmap().Is4() {
		return netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port())
	}
	return netip.AddrPortFrom(netip.IPv6Unspecified(), ap.Port())
}
