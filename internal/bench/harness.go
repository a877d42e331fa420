package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/serve"
)

// Harness runs the server under test in-process on a loopback port.
// The Template carries its whole configuration (registry, decoder,
// admission limits); each Start copies it, so the compiled plans and
// the decode graph are shared read-only across restarts.
type Harness struct {
	Template serve.Config
	// DrainTimeout bounds each stop's graceful drain (default 30s).
	DrainTimeout time.Duration
}

// Start launches one server with the template's configuration on a
// free port, returning the bound address and a stop function that
// drains it and reports any serve/drain failure.
func (h *Harness) Start() (string, func() error, error) {
	srv, err := serve.New(h.Template)
	if err != nil {
		return "", nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	stop := func() error {
		timeout := h.DrainTimeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("bench: harness drain: %w", err)
		}
		return <-serveErr
	}
	return addr.String(), stop, nil
}
