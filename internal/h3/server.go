package h3

import (
	"bytes"
	"context"
	"strconv"

	"quicscan/internal/quic"
)

// Request is a decoded HTTP/3 request: its method. A simulated
// deployment answers every request alike, so nothing reads the scheme,
// authority, path or other fields.
type Request struct {
	Method string
}

// Handler produces a response for a request. The server only reads the
// response, so a handler may return one Response to many requests, from
// many connections at once.
type Handler func(req *Request) *Response

// Server serves HTTP/3 on QUIC connections.
type Server struct {
	// Handler handles requests. nil responds 404 to everything.
	Handler Handler
}

// serverControl opens a server's control stream: the stream type, then
// SETTINGS for an all-static QPACK configuration.
var serverControl = appendSettings(appendStreamType(nil, streamTypeControl), []setting{
	{ID: settingQPACKMaxTableCapacity, Value: 0},
	{ID: settingQPACKBlockedStreams, Value: 0},
	{ID: settingMaxFieldSectionSize, Value: 1 << 16},
})

// ServeConn runs the HTTP/3 session on one handshaken QUIC connection
// until it closes: each request stream is answered on a goroutine of its
// own. It is a quic.Listen serve function. The peer's unidirectional
// streams (control, QPACK) need no answer with an all-static QPACK
// configuration, so they are left unread.
func (srv *Server) ServeConn(conn *quic.Conn) {
	ctrl, err := conn.OpenUniStream()
	if err != nil {
		return
	}
	if _, err := ctrl.Write(serverControl); err != nil {
		return
	}
	ctx := context.Background()
	for {
		s, err := conn.AcceptStream(ctx)
		if err != nil {
			return
		}
		if s.ID()%4 == 0 { // client-initiated bidirectional: a request
			go srv.serveRequest(ctx, s)
		}
	}
}

func (srv *Server) serveRequest(ctx context.Context, s *quic.Stream) {
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
	out := appendFrame(nil, frameHeaders, EncodeHeaders(fields))
	if len(resp.Body) > 0 && req.Method != "HEAD" {
		out = appendFrame(out, frameData, resp.Body)
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
		if t != frameHeaders {
			continue
		}
		fields, err := DecodeHeaders(payload)
		if err != nil {
			return nil, err
		}
		req := &Request{}
		for _, f := range fields {
			if f.Name == ":method" {
				req.Method = f.Value
			}
		}
		return req, nil
	}
}
