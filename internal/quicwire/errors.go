package quicwire

import "fmt"

// TransportError is a QUIC transport error code (RFC 9000, Section 20).
type TransportError uint64

const (
	NoError                 TransportError = 0x00
	InternalError           TransportError = 0x01
	ConnectionRefused       TransportError = 0x02
	FlowControlError        TransportError = 0x03
	StreamLimitError        TransportError = 0x04
	StreamStateError        TransportError = 0x05
	FinalSizeError          TransportError = 0x06
	FrameEncodingError      TransportError = 0x07
	TransportParameterError TransportError = 0x08
	ConnectionIDLimitError  TransportError = 0x09
	ProtocolViolation       TransportError = 0x0a
	InvalidToken            TransportError = 0x0b
	ApplicationError        TransportError = 0x0c
	CryptoBufferExceeded    TransportError = 0x0d
	KeyUpdateError          TransportError = 0x0e
	AEADLimitReached        TransportError = 0x0f
	NoViablePath            TransportError = 0x10

	// CryptoErrorBase plus a TLS alert value forms the crypto error
	// range 0x0100-0x01ff. The paper's most common stateful-scan
	// failure, "QUIC Alert 0x128", is CryptoErrorBase + TLS alert 0x28
	// (handshake_failure).
	CryptoErrorBase TransportError = 0x100
)

// CryptoError builds the transport error code for a TLS alert.
func CryptoError(alert uint8) TransportError {
	return CryptoErrorBase + TransportError(alert)
}

// CryptoError0x128 is the generic handshake-failure crypto error the
// paper reports as the dominant error class (TLS alert 40 = 0x28).
const CryptoError0x128 = CryptoErrorBase + 0x28

// isCryptoError reports whether e is in the crypto error range.
func (e TransportError) isCryptoError() bool {
	return e >= CryptoErrorBase && e < CryptoErrorBase+0x100
}

func (e TransportError) String() string {
	switch e {
	case NoError:
		return "NO_ERROR"
	case InternalError:
		return "INTERNAL_ERROR"
	case ConnectionRefused:
		return "CONNECTION_REFUSED"
	case FlowControlError:
		return "FLOW_CONTROL_ERROR"
	case StreamLimitError:
		return "STREAM_LIMIT_ERROR"
	case StreamStateError:
		return "STREAM_STATE_ERROR"
	case FinalSizeError:
		return "FINAL_SIZE_ERROR"
	case FrameEncodingError:
		return "FRAME_ENCODING_ERROR"
	case TransportParameterError:
		return "TRANSPORT_PARAMETER_ERROR"
	case ConnectionIDLimitError:
		return "CONNECTION_ID_LIMIT_ERROR"
	case ProtocolViolation:
		return "PROTOCOL_VIOLATION"
	case InvalidToken:
		return "INVALID_TOKEN"
	case ApplicationError:
		return "APPLICATION_ERROR"
	case CryptoBufferExceeded:
		return "CRYPTO_BUFFER_EXCEEDED"
	case KeyUpdateError:
		return "KEY_UPDATE_ERROR"
	case AEADLimitReached:
		return "AEAD_LIMIT_REACHED"
	case NoViablePath:
		return "NO_VIABLE_PATH"
	}
	if e.isCryptoError() {
		return fmt.Sprintf("CRYPTO_ERROR(0x%x)", uint64(e))
	}
	return fmt.Sprintf("TRANSPORT_ERROR(0x%x)", uint64(e))
}

// TransportErrorError wraps a TransportError plus reason phrase as a Go
// error, carrying what a peer reported in CONNECTION_CLOSE.
type TransportErrorError struct {
	Code   TransportError
	Reason string
	Remote bool // true if received from the peer
}

func (e *TransportErrorError) Error() string {
	dir := "local"
	if e.Remote {
		dir = "peer"
	}
	if e.Reason == "" {
		return fmt.Sprintf("quic: %s closed connection: %s", dir, e.Code)
	}
	return fmt.Sprintf("quic: %s closed connection: %s (%q)", dir, e.Code, e.Reason)
}
