package swwdclient

// Functional options: the constructor idiom shared with the root swwd
// package and ingest.New, applied here to the reporter client.

import (
	"net"
	"time"
)

// Option configures a Client built with Dial. Options are applied in
// order over the zero Config, so later options win.
type Option func(*Config)

// WithNode sets this node's wire ID, as registered on the server.
// Unset means node 0.
func WithNode(node uint32) Option {
	return func(cfg *Config) { cfg.Node = node }
}

// WithRunnables sets the node-local runnable count; Beat/Exec indices
// are 0..n-1 and map to the server-side registration table. Required:
// Dial fails without a positive count.
func WithRunnables(n int) Option {
	return func(cfg *Config) { cfg.Runnables = n }
}

// WithInterval sets the flush cadence, also declared in every frame so
// the server derives the link hypothesis from it. Zero or negative
// keeps DefaultInterval.
func WithInterval(d time.Duration) Option {
	return func(cfg *Config) { cfg.Interval = d }
}

// WithMaxFlowBacklog caps buffered flow events between flushes; beyond
// it new events are dropped and counted. Zero or negative keeps
// DefaultMaxFlowBacklog.
func WithMaxFlowBacklog(n int) Option {
	return func(cfg *Config) { cfg.MaxFlowBacklog = n }
}

// WithBackoff bounds the reconnect backoff after send failures. Zeros
// keep the defaults.
func WithBackoff(min, max time.Duration) Option {
	return func(cfg *Config) {
		cfg.MinBackoff = min
		cfg.MaxBackoff = max
	}
}

// WithOnCommand subscribes fn to the server's treatment commands. fn
// runs on the background reader goroutine, one call per command record,
// in order; it must not block for long — the socket buffer is the only
// queue behind it.
func WithOnCommand(fn func(Command)) Option {
	return func(cfg *Config) { cfg.OnCommand = fn }
}

// WithDialer replaces the socket constructor used by Dial and by every
// backoff redial. The chaos campaign engine (internal/chaos) uses it to
// interpose a fault-injecting conn between reporter and server; nil
// keeps the plain net.Dial("udp", addr).
func WithDialer(fn func(addr string) (net.Conn, error)) Option {
	return func(cfg *Config) { cfg.Dialer = fn }
}
