package h3

import (
	"bytes"
	"context"
	"fmt"

	"quicscan/internal/quic"
)

// ClientConn is an HTTP/3 client session over one QUIC connection.
type ClientConn struct {
	qconn *quic.Conn
}

// NewClientConn starts HTTP/3 on an established QUIC connection by
// opening the client control stream and sending SETTINGS.
func NewClientConn(qconn *quic.Conn) (*ClientConn, error) {
	ctrl, err := qconn.OpenUniStream()
	if err != nil {
		return nil, err
	}
	var b []byte
	b = appendStreamType(b, streamTypeControl)
	b = appendSettings(b, []setting{
		{ID: settingQPACKMaxTableCapacity, Value: 0},
		{ID: settingQPACKBlockedStreams, Value: 0},
	})
	if _, err := ctrl.Write(b); err != nil {
		return nil, err
	}
	return &ClientConn{qconn: qconn}, nil
}

func appendStreamType(b []byte, t uint64) []byte {
	return append(b, byte(t)) // all defined types fit in one byte
}

// Response is a decoded HTTP/3 response.
type Response struct {
	Status  string
	Headers []HeaderField
	Body    []byte
}

// Header returns the first value of a (lower-case) field name.
func (r *Response) Header(name string) string {
	for _, f := range r.Headers {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// RoundTrip sends a request and reads the complete response.
func (c *ClientConn) RoundTrip(ctx context.Context, method, authority, path string, extra []HeaderField) (*Response, error) {
	s, err := c.qconn.OpenStream()
	if err != nil {
		return nil, err
	}
	fields := []HeaderField{
		{Name: ":method", Value: method},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: authority},
		{Name: ":path", Value: path},
	}
	fields = append(fields, extra...)
	req := appendFrame(nil, frameHeaders, EncodeHeaders(fields))
	if _, err := s.Write(req); err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}

	data, err := s.ReadAll(ctx)
	if err != nil {
		return nil, err
	}
	return parseResponse(data)
}

func parseResponse(data []byte) (*Response, error) {
	fr := &frameReader{r: bytes.NewReader(data)}
	resp := &Response{}
	seenHeaders := false
	for {
		t, payload, err := fr.next()
		if err != nil {
			// End of stream terminates the frame sequence.
			if seenHeaders {
				break
			}
			return nil, fmt.Errorf("h3: response without HEADERS: %w", err)
		}
		switch t {
		case frameHeaders:
			fields, err := DecodeHeaders(payload)
			if err != nil {
				return nil, err
			}
			if !seenHeaders {
				seenHeaders = true
				resp.Headers = fields
				for _, f := range fields {
					if f.Name == ":status" {
						resp.Status = f.Value
					}
				}
			} // trailers ignored
		case frameData:
			resp.Body = append(resp.Body, payload...)
		default:
			// Unknown frames are ignored per RFC 9114.
		}
	}
	return resp, nil
}
