package quic

import (
	"sync"

	"quicscan/internal/telemetry"
)

// Registry metrics for the QUIC layer (the quic_* family), resolved once
// at init and updated on the atomic fast path. They are process-wide
// totals; Conn.Stats and Transport.Stats count the same events for one
// connection and one Transport.
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
	// mRouteAddrMiss counts short-header datagrams that routed by
	// connection ID but arrived from an address other than the
	// connection's active path — the observable shadow of NAT rebinding
	// and migration (endpoint.route, client role only).
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

	// mRouteShard counts datagrams demuxed per route-table shard — a
	// skew check for the sharded routing introduced to take the single
	// Transport mutex off the receive hot path.
	mRouteShard = telemetry.Default().CounterVec("quic_route_shard_hits_total", "shard")
)

// Fixed-label children of the vecs above, resolved once so the dial
// path pays no label join or vec map lookup per handshake.
var (
	mHandshakeSuccess         = mHandshakes.With("success")
	mHandshakeTimeout         = mHandshakes.With("timeout")
	mHandshakeVersionMismatch = mHandshakes.With("version_mismatch")
	mHandshakeError           = mHandshakes.With("error")

	// The Listener's own drop reasons, beside route's four (see
	// serverRole). token: an address validation token failed validation;
	// short_initial: Initial in a datagram under 1200 bytes; draining_initial: Initial for a
	// connection ID that is draining; no_route: anything else that
	// matches no connection and cannot start one.
	mListenerDropToken           = mListenerDrops.With("token")
	mListenerDropShortInitial    = mListenerDrops.With("short_initial")
	mListenerDropDrainingInitial = mListenerDrops.With("draining_initial")
	mListenerDropNoRoute         = mListenerDrops.With("no_route")
)

// The two roles of an endpoint. Both count the same four route drops
// (empty, bad_header, short_header, no_route), the client under
// quic_dropped_datagrams_total and the server under
// quic_listener_drops_total.
var (
	clientRole = role{
		closedErr:    ErrTransportClosed,
		datagramsIn:  mDatagramsIn,
		datagramsOut: mDatagramsOut,
		bytesIn:      mBytesIn,
		bytesOut:     mBytesOut,
		shardHits:    mRouteShardHits,
		addrMiss:     mRouteAddrMiss,
		conns:        mActiveConns,
		drainEvicted: mDrainEvicted,
		empty:        mDropped.With("empty"),
		badHeader:    mDropped.With("bad_header"),
		shortHeader:  mDropped.With("short_header"),
		noRoute:      mDropped.With("no_route"),
	}
	serverRole = role{
		closedErr:    ErrConnectionClosed,
		conns:        mListenerConns,
		drainEvicted: mListenerDrainEvicted,
		empty:        mListenerDrops.With("empty"),
		badHeader:    mListenerDrops.With("bad_header"),
		shortHeader:  mListenerDrops.With("short_header"),
		noRoute:      mListenerDropNoRoute,
	}
)

// mRouteShardHits holds the pre-resolved per-shard children of
// mRouteShard so route() pays one atomic add, no label join.
var mRouteShardHits = func() [routeShards]*telemetry.Counter {
	var out [routeShards]*telemetry.Counter
	for i := range out {
		out[i] = mRouteShard.With("s" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
	}
	return out
}()

// vnVersionCounters caches mVNByVersion children per advertised
// version string; the set of versions a run observes is tiny.
var vnVersionCounters sync.Map // string -> *telemetry.Counter

func vnVersionCounter(name string) *telemetry.Counter {
	if c, ok := vnVersionCounters.Load(name); ok {
		return c.(*telemetry.Counter)
	}
	c, _ := vnVersionCounters.LoadOrStore(name, mVNByVersion.With(name))
	return c.(*telemetry.Counter)
}

// spaceNames maps packet number space indices to qlog-style names.
var spaceNames = [numSpaces]string{"initial", "handshake", "1rtt"}
