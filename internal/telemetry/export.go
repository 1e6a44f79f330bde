package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// writePrometheus renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4): one TYPE line per family, series sorted by
// name so output is stable for diffing and tests.
func (r *Registry) writePrometheus(w io.Writer) error {
	s := r.Snapshot()
	series := make(map[string][]string) // counter family -> its series
	for _, sn := range slices.Sorted(maps.Keys(s.Counters)) {
		family, _, _ := strings.Cut(sn, "{")
		series[family] = append(series[family], sn)
	}
	names := slices.Concat(slices.Collect(maps.Keys(series)),
		slices.Collect(maps.Keys(s.Gauges)), slices.Collect(maps.Keys(s.Histograms)))
	slices.Sort(names)
	var b strings.Builder
	for _, n := range names {
		if g, ok := s.Gauges[n]; ok {
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, g)
		} else if h, ok := s.Histograms[n]; ok {
			writePromHistogram(&b, n, h)
		} else {
			fmt.Fprintf(&b, "# TYPE %s counter\n", n)
			for _, sn := range series[n] {
				fmt.Fprintf(&b, "%s %d\n", sn, s.Counters[sn])
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHistogram(b *strings.Builder, name string, h HistogramSnapshot) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatFloat(h.Bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, formatFloat(h.Sum), name, h.Count)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// handler returns an http.Handler exposing the registry:
//
//	/metrics  Prometheus text exposition
//	/metricz  the same data as a JSON Snapshot
//	/debug/pprof/...  the standard runtime profiles
//
// It is what -metrics-addr serves in the scanning binaries.
func (r *Registry) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.writePrometheus(w)
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, req *http.Request) {
		// Into a buffer first: a snapshot JSON cannot carry must be a
		// 500 that says so, not a 200 with an empty body.
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			http.Error(w, "telemetry: encoding the snapshot: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body.Bytes())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "quicscan telemetry: /metrics (Prometheus), /metricz (JSON), /debug/pprof/\n")
	})
	return mux
}

// Serve starts the exporter on addr in a background goroutine and
// returns the server (for Close) and the bound address (useful with
// ":0"). The error covers only listener setup.
func (r *Registry) Serve(addr string) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: r.handler()}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}

// Families reports the distinct metric family prefixes present in a
// snapshot (the part of each name before the first underscore), a
// cheap way for tests and operators to check that every producer
// layer is wired in.
func (s Snapshot) Families() []string {
	seen := make(map[string]bool)
	add := func(name string) {
		if i := strings.IndexByte(name, '_'); i > 0 {
			seen[name[:i]] = true
		}
	}
	for n := range s.Counters {
		add(n)
	}
	for n := range s.Gauges {
		add(n)
	}
	for n := range s.Histograms {
		add(n)
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
