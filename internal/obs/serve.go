package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LiveServer exposes a running simulation's gauges over HTTP in
// Prometheus text format. The simulator is single-goroutine, so the
// HTTP handlers never touch live machine state: the simulation thread
// calls Publish with an evaluated snapshot (typically from the
// timeline sample hook), and handlers render the last published
// snapshot under a read lock.
//
// Endpoints:
//
//	GET /metrics  — Prometheus text format; every gauge prefixed
//	                "protozoa_", plus protozoa_sim_cycle (the snapshot's
//	                simulated cycle) and protozoa_snapshots_total.
//	GET /healthz  — 200 "ok\n" once the server is up.
//
// Close shuts the listener down gracefully, letting in-flight
// responses finish.
type LiveServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // Serve returned

	mu        sync.RWMutex
	descs     []MetricDesc
	cycle     uint64
	values    []float64
	published uint64
}

// NewLiveServer listens on addr (host:port; port 0 picks a free port —
// read the result from Addr) and starts serving the given metric set.
// Values arrive later via Publish; until then /metrics reports only
// the snapshot counters.
func NewLiveServer(addr string, descs []MetricDesc) (*LiveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: live server: %w", err)
	}
	s := &LiveServer{
		ln:    ln,
		descs: append([]MetricDesc(nil), descs...),
		done:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// Addr reports the bound listen address (resolves ":0" requests).
func (s *LiveServer) Addr() string { return s.ln.Addr().String() }

// Publish installs a new snapshot: the simulated cycle it was taken at
// and one value per descriptor, in descriptor order. The slice is
// copied, so callers may reuse their buffer. Safe to call from the
// simulation goroutine while handlers are serving.
func (s *LiveServer) Publish(cycle uint64, values []float64) {
	s.mu.Lock()
	s.cycle = cycle
	if cap(s.values) < len(values) {
		s.values = make([]float64, len(values))
	}
	s.values = s.values[:len(values)]
	copy(s.values, values)
	s.published++
	s.mu.Unlock()
}

// Close gracefully shuts the server down: stop accepting, let
// in-flight responses complete (bounded at 5 s), then return.
func (s *LiveServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *LiveServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ok\n")
}

func (s *LiveServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	cycle, published := s.cycle, s.published
	values := append([]float64(nil), s.values...)
	s.mu.RUnlock()

	var b strings.Builder
	writeGauge(&b, "protozoa_sim_cycle", "simulated cycle of the last published snapshot", float64(cycle))
	writeGauge(&b, "protozoa_snapshots_total", "snapshots published by the simulation thread", float64(published))
	for i, d := range s.descs {
		if i >= len(values) {
			break
		}
		writeGauge(&b, "protozoa_"+sanitizeMetricName(d.Name), d.Help, values[i])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s gauge\n", name)
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

// sanitizeMetricName maps a registry name onto the Prometheus metric
// charset [a-zA-Z0-9_:] (registry names are snake_case already; this
// guards custom gauges).
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if isMetricChar(name[i], b.Len() == 0) {
			b.WriteByte(name[i])
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func isMetricChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
