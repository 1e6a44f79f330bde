package quic

import (
	"crypto/tls"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// drainTLSEvents processes pending crypto/tls events. Must be called
// with c.mu held.
func (c *Conn) drainTLSEvents() error {
	for {
		ev := c.tls.NextEvent()
		switch ev.Kind {
		case tls.QUICNoEvent:
			return nil
		case tls.QUICSetReadSecret:
			keys, err := quiccrypto.NewKeys(ev.Suite, ev.Data)
			if err != nil {
				return err
			}
			if ev.Level == tls.QUICEncryptionLevelEarly {
				// Server side: the client's 0-RTT offer was accepted.
				// Early keys protect application-space packets, so they
				// live beside the 1-RTT keys instead of a fourth space.
				c.earlyRecvKeys = keys
				c.spaces[spaceApp].suite = ev.Suite
				if c.trace != nil {
					c.trace.Event("zero_rtt_accepted")
				}
				continue
			}
			c.spaces[spaceFor(ev.Level)].recvKeys = keys
			c.spaces[spaceFor(ev.Level)].suite = ev.Suite
			if c.trace != nil {
				c.trace.Event("handshake_state",
					"state", "keys_installed", "space", spaceNames[spaceFor(ev.Level)])
			}
		case tls.QUICSetWriteSecret:
			keys, err := quiccrypto.NewKeys(ev.Suite, ev.Data)
			if err != nil {
				return err
			}
			if ev.Level == tls.QUICEncryptionLevelEarly {
				// Client side: early traffic keys are available, so the
				// first flight of application data rides in 0-RTT.
				c.earlySendKeys = keys
				c.earlyOffered = true
				mZeroRTTOffered.Inc()
				if c.trace != nil {
					c.trace.Event("zero_rtt_offered")
				}
				continue
			}
			c.spaces[spaceFor(ev.Level)].sendKeys = keys
		case tls.QUICWriteData:
			sp := &c.spaces[spaceFor(ev.Level)]
			sp.outCrypto = append(sp.outCrypto, ev.Data...)
		case tls.QUICTransportParameters:
			params, err := transportparams.Unmarshal(ev.Data)
			if err != nil {
				return &quicwire.TransportErrorError{Code: quicwire.TransportParameterError, Reason: err.Error()}
			}
			if c.policy().RejectUnknownTP && len(params.Unknown) > 0 {
				// Quirk: RFC 9000 Section 7.4.2 says unknown transport
				// parameters MUST be ignored; this endpoint instead
				// refuses them with the exact 0x8 code on the wire, so
				// the close is sent here rather than surfaced as a TLS
				// failure (which would map to a crypto error).
				c.closeWithTransportErrorLocked(quicwire.TransportParameterError,
					"unsupported transport parameter")
				return nil
			}
			c.peerParams = params
			c.havePeerParams = true
			if c.trace != nil {
				c.trace.Event("transport_parameters_received",
					"max_idle_timeout_ms", params.MaxIdleTimeout,
					"initial_max_data", params.InitialMaxData,
					"max_udp_payload_size", params.MaxUDPPayloadSize)
			}
		case tls.QUICTransportParametersRequired:
			// The server-side quirk hook supplies parameters lazily:
			// QUICTransportParametersRequired fires after the ClientHello
			// (and thus after QUICResumeSession), so the downgrade quirk
			// can key off c.resumed.
			if c.tlsParamsFn != nil {
				c.tls.SetTransportParameters(c.tlsParamsFn())
			} else {
				c.tls.SetTransportParameters(c.cfg.TransportParams.Marshal())
			}
		case tls.QUICHandshakeDone:
			c.completeHandshakeLocked()
		case tls.QUICStoreSession:
			// Client only (requires EnableSessionEvents): a session
			// ticket arrived. Stash the server's transport parameters
			// alongside it — a future resumed dial needs the remembered
			// values both to size its 0-RTT flight and to detect the
			// §7.4.1 downgrade violation.
			if c.havePeerParams {
				ev.SessionState.Extra = append(ev.SessionState.Extra,
					rememberedTPExtra(c.peerParams))
			}
			if err := c.tls.StoreSession(ev.SessionState); err != nil {
				return err
			}
			mTicketsStored.Inc()
			if c.trace != nil {
				c.trace.Event("session_ticket_received",
					"early_data", ev.SessionState.EarlyData)
			}
			if !c.ticketSeen {
				c.ticketSeen = true
				if c.ticketCh != nil {
					close(c.ticketCh)
				}
			}
		case tls.QUICResumeSession:
			c.resumed = true
			if c.isClient {
				mResumedConns.Inc()
				for _, extra := range ev.SessionState.Extra {
					if p, ok := parseRememberedTPExtra(extra); ok {
						c.remembered = p
						c.haveRemembered = true
						break
					}
				}
			} else if c.policy().Resumption == ResumptionTicketNo0RTT {
				// Quirk: issue early-data-capable tickets but refuse the
				// 0-RTT offer on resumption (ticket-no-0rtt profiles).
				ev.SessionState.EarlyData = false
			}
			if c.trace != nil {
				c.trace.Event("session_resumed", "early_data", ev.SessionState.EarlyData)
			}
		case tls.QUICRejectedEarlyData:
			// Client only: the server declined our 0-RTT flight. Drop the
			// early keys and requeue everything sent under them for 1-RTT
			// retransmission (same repair primitive as Retry).
			c.earlyRejected = true
			c.earlySendKeys = nil
			sp := &c.spaces[spaceApp]
			sp.outFrames = sp.loss.takeUnacked(sp.outFrames)
			mZeroRTTRejected.Inc()
			if c.trace != nil {
				c.trace.Event("zero_rtt_rejected")
			}
		}
	}
}

// rememberedTPExtraPrefix tags the SessionState.Extra entry carrying
// the server transport parameters remembered with a session ticket.
// Extra is shared by every layer of the stack, so entries must be
// self-identifying (crypto/tls docs).
const rememberedTPExtraPrefix = "quicscan-tp\x00"

func rememberedTPExtra(p transportparams.Parameters) []byte {
	return append([]byte(rememberedTPExtraPrefix), p.Marshal()...)
}

func parseRememberedTPExtra(extra []byte) (transportparams.Parameters, bool) {
	if len(extra) < len(rememberedTPExtraPrefix) ||
		string(extra[:len(rememberedTPExtraPrefix)]) != rememberedTPExtraPrefix {
		return transportparams.Parameters{}, false
	}
	p, err := transportparams.Unmarshal(extra[len(rememberedTPExtraPrefix):])
	if err != nil {
		return transportparams.Parameters{}, false
	}
	return p, true
}

// tpReduced reports whether fresh reduces any of the limits a 0-RTT
// client relies on below the remembered values — the set RFC 9000
// §7.4.1 forbids a server from shrinking when it accepts early data.
func tpReduced(remembered, fresh transportparams.Parameters) bool {
	return fresh.InitialMaxData < remembered.InitialMaxData ||
		fresh.InitialMaxStreamDataBidiLocal < remembered.InitialMaxStreamDataBidiLocal ||
		fresh.InitialMaxStreamDataBidiRemote < remembered.InitialMaxStreamDataBidiRemote ||
		fresh.InitialMaxStreamDataUni < remembered.InitialMaxStreamDataUni ||
		fresh.InitialMaxStreamsBidi < remembered.InitialMaxStreamsBidi ||
		fresh.InitialMaxStreamsUni < remembered.InitialMaxStreamsUni
}

func (c *Conn) completeHandshakeLocked() {
	if c.handshakeDone {
		return
	}
	if c.isClient {
		// QUICResumeSession marked the resumption attempt; DidResume is
		// the server's authoritative answer once the handshake settles.
		c.resumed = c.tls.ConnectionState().DidResume
	}
	// RFC 9000 §7.4.1: a server that accepted early data must not
	// reduce the remembered limits; a client that detects a reduction
	// closes with PROTOCOL_VIOLATION. The offending ticket is
	// invalidated so the next dial takes the full handshake.
	if c.isClient && c.earlyOffered && !c.earlyRejected &&
		c.haveRemembered && c.havePeerParams && tpReduced(c.remembered, c.peerParams) {
		mResumptionDowngrade.Inc()
		if c.trace != nil {
			c.trace.Event("resumption_tp_downgrade",
				"remembered_max_data", c.remembered.InitialMaxData,
				"fresh_max_data", c.peerParams.InitialMaxData)
		}
		if c.sessionCache != nil {
			c.sessionCache.invalidate(c.sessionKey)
		}
		c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{
			ErrorCode:    uint64(quicwire.ProtocolViolation),
			ReasonPhrase: "transport parameters reduced on resumption"})
		if c.hsErr == nil {
			c.hsErr = ErrParameterDowngrade
		}
		c.closeLocked(ErrParameterDowngrade)
		return
	}
	if c.isClient && c.earlyOffered && !c.earlyRejected {
		c.earlyAccepted = true
		mZeroRTTAccepted.Inc()
		if c.trace != nil {
			c.trace.Event("zero_rtt_accepted")
		}
	}
	// Early-returned dials were not counted by Transport.dial; their
	// handshake outcome lands here instead.
	if c.earlyReturned {
		mHandshakeSuccess.Inc()
	}
	// Early keys never outlive the handshake (RFC 9001, Section 4.9.3).
	c.earlySendKeys = nil
	c.earlyRecvKeys = nil
	c.handshakeDone = true
	c.stats.HandshakeDuration = time.Since(c.started)
	mHandshakeMs.Observe(float64(c.stats.HandshakeDuration.Microseconds()) / 1000)
	if c.trace != nil {
		c.trace.Event("handshake_state", "state", "done",
			"duration_ms", float64(c.stats.HandshakeDuration.Microseconds())/1000)
	}
	c.armIdleTimerLocked()
	if c.isClient {
		// A client that finished TLS has 1-RTT keys and never sends at
		// the Initial level again (RFC 9001, Section 4.9.1). It gives the
		// server spare connection IDs, so the server can rotate on its
		// side of a migration (RFC 9000, Section 5.1.1).
		c.spaces[spaceInitial].dropped = true
		c.issueConnIDsLocked(2)
	} else {
		c.ep.srv.handshakeDone(c)
	}
	close(c.handshakeCh)
}
