package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Server is the embedded HTTP monitor: it exposes a Registry at /metrics
// (Prometheus text format), liveness at /healthz, a caller-defined status
// snapshot at /api/status (JSON), and optional per-region profile and
// series-noise payloads at /api/regions and /api/variability; any other
// path is 404. It is deliberately tiny — net/http only — because it runs
// inside long campaign processes where a dependency or a blocking handler
// would be a liability.
type Server struct {
	reg *Registry

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
	done chan error
}

// NewServer builds a monitor over reg. status, regions and variability
// produce the /api/status, /api/regions and /api/variability payloads; each
// must be safe for concurrent use and cheap (it is called per request). A
// nil producer serves JSON null.
func NewServer(reg *Registry, status, regions, variability func() any) *Server {
	s := &Server{reg: reg, done: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/api/status", func(w http.ResponseWriter, _ *http.Request) { serveJSON(w, status) })
	mux.HandleFunc("/api/regions", func(w http.ResponseWriter, _ *http.Request) { serveJSON(w, regions) })
	mux.HandleFunc("/api/variability", func(w http.ResponseWriter, _ *http.Request) { serveJSON(w, variability) })
	s.http = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Start listens on addr (host:port; port 0 picks a free one) and serves in
// a background goroutine. It returns the bound address, so callers can
// print the actual URL when the port was chosen by the kernel.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: monitor listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		err := s.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
	return ln.Addr(), nil
}

// Shutdown stops accepting connections and waits (up to ctx; nil waits
// indefinitely) for in-flight requests to finish — the graceful end of a
// campaign's monitor.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return nil
	}
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// Linger is the end of a campaign's monitor: it keeps serving for d, so the
// terminal state can still be scraped, or until ctx is cancelled (Ctrl-C cuts
// the linger short), then shuts down gracefully.
func (s *Server) Linger(ctx context.Context, d time.Duration) error {
	if d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(sctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is drop the connection early.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// serveJSON writes produce's payload as JSON, null when produce is nil.
func serveJSON(w http.ResponseWriter, produce func() any) {
	w.Header().Set("Content-Type", "application/json")
	var payload any
	if produce != nil {
		payload = produce()
	}
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
