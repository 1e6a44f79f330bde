package h3

import (
	"bytes"
	"context"
	"strconv"

	"quicscan/internal/quic"
)

// Request is a decoded HTTP/3 request.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Headers   []HeaderField
}

// Header returns the first value of a (lower-case) field name.
func (r *Request) Header(name string) string {
	for _, f := range r.Headers {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// Handler produces a response for a request. The connection's TLS SNI
// is available through the quic.Conn passed at Serve time.
type Handler func(req *Request) *Response

// Server serves HTTP/3 on accepted QUIC connections.
type Server struct {
	// Handler handles requests. nil responds 404 to everything.
	Handler Handler
	// Settings are sent on the control stream. nil sends defaults.
	Settings []Setting
}

// Serve runs the HTTP/3 session on one QUIC connection, blocking until
// the connection closes. It is typically invoked per accepted
// connection in its own goroutine.
func (srv *Server) Serve(ctx context.Context, conn *quic.Conn) error {
	ctrl, err := conn.OpenUniStream()
	if err != nil {
		return err
	}
	settings := srv.Settings
	if settings == nil {
		settings = []Setting{
			{ID: SettingQPACKMaxTableCapacity, Value: 0},
			{ID: SettingQPACKBlockedStreams, Value: 0},
			{ID: SettingMaxFieldSectionSize, Value: 1 << 16},
		}
	}
	var b []byte
	b = appendStreamType(b, StreamTypeControl)
	b = AppendSettings(b, settings)
	if _, err := ctrl.Write(b); err != nil {
		return err
	}

	for {
		s, err := conn.AcceptStream(ctx)
		if err != nil {
			return err
		}
		if s.ID()%4 == 0 { // client-initiated bidirectional: a request
			go srv.serveRequest(ctx, conn, s)
		} else {
			go srv.consumeUniStream(ctx, s)
		}
	}
}

// ServeListener accepts connections from l until it is closed and
// runs Serve on each, on a goroutine of its own, once its handshake has
// completed. It blocks: a server runs it on one goroutine per listener.
func (srv *Server) ServeListener(l *quic.Listener) {
	ctx := context.Background()
	for {
		conn, err := l.Accept(ctx)
		if err != nil {
			return
		}
		go func() {
			if conn.HandshakeComplete(ctx) == nil {
				srv.Serve(ctx, conn)
			}
		}()
	}
}

// consumeUniStream drains a peer control/QPACK stream.
func (srv *Server) consumeUniStream(ctx context.Context, s *quic.Stream) {
	// The content (SETTINGS etc.) requires no action with an
	// all-static QPACK configuration; drain to keep flow control
	// moving.
	s.ReadAll(ctx)
}

func (srv *Server) serveRequest(ctx context.Context, conn *quic.Conn, s *quic.Stream) {
	data, err := s.ReadAll(ctx)
	if err != nil {
		return
	}
	req, err := parseRequest(data)
	if err != nil {
		return
	}

	var resp *Response
	if srv.Handler != nil {
		resp = srv.Handler(req)
	}
	if resp == nil {
		resp = &Response{Status: "404"}
	}

	fields := []HeaderField{{Name: ":status", Value: resp.Status}}
	fields = append(fields, resp.Headers...)
	if len(resp.Body) > 0 && req.Method != "HEAD" {
		fields = append(fields, HeaderField{Name: "content-length", Value: strconv.Itoa(len(resp.Body))})
	}
	out := AppendFrame(nil, FrameHeaders, EncodeHeaders(fields))
	if len(resp.Body) > 0 && req.Method != "HEAD" {
		out = AppendFrame(out, FrameData, resp.Body)
	}
	s.Write(out)
	s.Close()
}

func parseRequest(data []byte) (*Request, error) {
	fr := &frameReader{r: bytes.NewReader(data)}
	for {
		t, payload, err := fr.next()
		if err != nil {
			return nil, err
		}
		if t != FrameHeaders {
			continue
		}
		fields, err := DecodeHeaders(payload)
		if err != nil {
			return nil, err
		}
		req := &Request{}
		for _, f := range fields {
			switch f.Name {
			case ":method":
				req.Method = f.Value
			case ":scheme":
				req.Scheme = f.Value
			case ":authority":
				req.Authority = f.Value
			case ":path":
				req.Path = f.Value
			default:
				req.Headers = append(req.Headers, f)
			}
		}
		return req, nil
	}
}
