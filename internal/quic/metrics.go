package quic

import "quicscan/internal/telemetry"

// Registry metrics for the QUIC layer (the quic_* family), resolved once
// at init. An event a Transport or a Conn counts in its Stats reaches
// them from there (Transport.readCounts, Stats.publish); the rest are
// updated on the atomic fast path where they happen.
var (
	mDials        = telemetry.Default().Counter("quic_dials_total")
	mDatagramsIn  = telemetry.Default().Counter("quic_datagrams_in_total")
	mDatagramsOut = telemetry.Default().Counter("quic_datagrams_out_total")
	mBytesIn      = telemetry.Default().Counter("quic_bytes_in_total")
	mBytesOut     = telemetry.Default().Counter("quic_bytes_out_total")
	mRoutingMiss  = telemetry.Default().Counter("quic_routing_misses_total")
	mLatePackets  = telemetry.Default().Counter("quic_late_packets_total")
	mDropped      = telemetry.Default().CounterVec("quic_dropped_datagrams_total", "reason")
	mReadTimeouts = telemetry.Default().Counter("quic_read_timeouts_total")
	mActiveConns  = telemetry.Default().Gauge("quic_active_conns")
	mDrainEvicted = telemetry.Default().Counter("quic_draining_evicted_total")

	// Server side (Listener): connections currently routed, late packets
	// absorbed by the tombstones of closed connections, tombstones the
	// cap evicted before their draining period was up, and every
	// datagram dropped without reaching a connection, by reason.
	mListenerConns        = telemetry.Default().Gauge("quic_listener_conns")
	mListenerLatePackets  = telemetry.Default().Counter("quic_listener_late_packets_total")
	mListenerDrainEvicted = telemetry.Default().Counter("quic_listener_draining_evicted_total")
	mListenerDrops        = telemetry.Default().CounterVec("quic_listener_drops_total", "reason")

	mRetransmits = telemetry.Default().Counter("quic_retransmits_total")
	mPTOFired    = telemetry.Default().Counter("quic_pto_fired_total")
	mRetries     = telemetry.Default().Counter("quic_retry_packets_total")
	mHandshakes  = telemetry.Default().CounterVec("quic_handshakes_total", "result")
	// mVNByVersion breaks received Version Negotiation offers down by
	// server-advertised version — the paper's VN behaviour analysis.
	mVNReceived  = telemetry.Default().Counter("quic_version_negotiation_total")
	mVNByVersion = telemetry.Default().CounterVec("quic_vn_server_versions_total", "version")
	// mHandshakeMs is the handshake completion latency histogram.
	mHandshakeMs = telemetry.Default().Histogram("quic_handshake_ms", telemetry.LatencyBucketsMs())

	// Path validation and connection migration (path.go).
	mPathChallengesSent     = telemetry.Default().Counter("quic_path_challenges_sent_total")
	mPathChallengesReceived = telemetry.Default().Counter("quic_path_challenges_received_total")
	mPathValidated          = telemetry.Default().Counter("quic_path_validations_total")
	mPathValidationFail     = telemetry.Default().Counter("quic_path_validation_failures_total")
	mMigrations             = telemetry.Default().Counter("quic_migrations_total")
	// mRouteAddrMiss counts short-header datagrams that routed to a
	// client connection by connection ID but arrived from an address
	// other than its active path — the observable shadow of NAT
	// rebinding and migration (Conn.handleDatagram).
	mRouteAddrMiss = telemetry.Default().Counter("quic_route_addr_miss_total")

	// Handshake fast path: session resumption, 0-RTT and NEW_TOKEN
	// reuse (sessioncache.go, conn.go, packer.go).
	mTicketsStored       = telemetry.Default().Counter("quic_resumption_tickets_stored_total")
	mTicketsIssued       = telemetry.Default().Counter("quic_resumption_tickets_issued_total")
	mResumedConns        = telemetry.Default().Counter("quic_resumption_resumed_total")
	mResumptionDowngrade = telemetry.Default().Counter("quic_resumption_tp_downgrade_total")
	mNewTokensReceived   = telemetry.Default().Counter("quic_resumption_new_tokens_total")
	mNewTokensReplayed   = telemetry.Default().Counter("quic_resumption_token_replays_total")
	mZeroRTTOffered      = telemetry.Default().Counter("quic_zero_rtt_offered_total")
	mZeroRTTAccepted     = telemetry.Default().Counter("quic_zero_rtt_accepted_total")
	mZeroRTTRejected     = telemetry.Default().Counter("quic_zero_rtt_rejected_total")
)

// Fixed-label children of the vecs above, resolved once so the dial
// path pays no label join or vec map lookup per handshake.
var (
	mHandshakeSuccess         = mHandshakes.With("success")
	mHandshakeTimeout         = mHandshakes.With("timeout")
	mHandshakeVersionMismatch = mHandshakes.With("version_mismatch")
	mHandshakeError           = mHandshakes.With("error")

	// The Listener's own drop reasons, beside dest's five (see
	// dropReason). token: an address validation token failed validation;
	// short_initial: Initial in a datagram under 1200 bytes; draining_initial: Initial for a
	// connection ID that is draining.
	mListenerDropToken           = mListenerDrops.With("token")
	mListenerDropShortInitial    = mListenerDrops.With("short_initial")
	mListenerDropDrainingInitial = mListenerDrops.With("draining_initial")
)

// dropReason is why an endpoint delivered a datagram to no connection:
// it is empty, it is longer than the largest the endpoint takes
// (oversize: it filled a pumped endpoint's buffer), its long header
// does not parse, its short header cannot hold a connection ID, or
// nothing owns its destination (no_route; on a server also anything
// that cannot start a connection) — dest's five — or its connection
// already has rxQueue.queueCap datagrams waiting for an executor
// (queue_full, handOff's).
type dropReason int

const (
	dropEmpty dropReason = iota
	dropBadHeader
	dropShortHeader
	dropNoRoute
	dropQueueFull
	dropOversize
	numDropReasons
)

// Each reason's series for a Transport and for a Listener.
var mDroppedBy, mListenerDropsBy = func() (client, server [numDropReasons]*telemetry.Counter) {
	for i, name := range [numDropReasons]string{"empty", "bad_header", "short_header", "no_route", "queue_full", "oversize"} {
		client[i], server[i] = mDropped.With(name), mListenerDrops.With(name)
	}
	return client, server
}()

var (
	clientRole = role{closedErr: errTransportClosed, drainEvicted: mDrainEvicted}
	serverRole = role{closedErr: errConnectionClosed, drainEvicted: mListenerDrainEvicted,
		conns: mListenerConns}
)

// publish adds a closing connection's counted fields to their series,
// once (closeLocked).
func (s *Stats) publish() {
	mRetransmits.Add(uint64(s.Retransmits))
	mPathChallengesSent.Add(uint64(s.PathChallengesSent))
	mPathChallengesReceived.Add(uint64(s.PathChallengesReceived))
	mPathValidated.Add(uint64(s.PathValidations))
	mPathValidationFail.Add(uint64(s.PathValidationFailures))
	mMigrations.Add(uint64(s.Migrations))
	if s.Retried {
		mRetries.Inc()
	}
}

// spaceNames maps packet number space indices to qlog-style names.
var spaceNames = [numSpaces]string{"initial", "handshake", "1rtt"}
