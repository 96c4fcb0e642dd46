package ingest

// Functional options: the constructor idiom of the root swwd package
// (swwd.New, validator.New), extended to the ingestion server.

import "swwd/internal/core"

// Option configures a Server built with New. Options are applied in
// order over the zero Config, so later options win.
type Option func(*Config)

// WithShards sets the worker count frames are decoded on; a node is
// pinned to the worker node%Shards, so frames of one node always replay
// in order. Zero or negative keeps DefaultShards.
func WithShards(n int) Option {
	return func(cfg *Config) { cfg.Shards = n }
}

// WithQueueLen sets the per-worker packet queue depth. Zero or negative
// keeps DefaultQueueLen.
func WithQueueLen(n int) Option {
	return func(cfg *Config) { cfg.QueueLen = n }
}

// WithMaxPacket sets the largest accepted datagram (and pooled buffer
// size). Zero or negative keeps DefaultMaxPacket.
func WithMaxPacket(n int) Option {
	return func(cfg *Config) { cfg.MaxPacket = n }
}

// WithGraceFrames sets how many declared flush intervals a node may
// stay silent before its link runnable accumulates an aliveness error.
// Zero or negative keeps DefaultGraceFrames.
func WithGraceFrames(n int) Option {
	return func(cfg *Config) { cfg.GraceFrames = n }
}

// WithReadBuffer sets the requested SO_RCVBUF of each UDP socket. Zero
// or negative keeps DefaultReadBuffer.
func WithReadBuffer(n int) Option {
	return func(cfg *Config) { cfg.ReadBuffer = n }
}

// WithListeners sets how many UDP sockets Listen binds to the address
// via SO_REUSEPORT, each with its own batched read loop. Platforms and
// kernels without SO_REUSEPORT fall back to one socket. Zero or
// negative keeps DefaultListeners; values beyond MaxListeners are
// capped.
func WithListeners(n int) Option {
	return func(cfg *Config) { cfg.Listeners = n }
}

// WithBatchSize sets how many datagrams one read-loop receive may
// return (recvmmsg on linux/amd64 and linux/arm64). 1 disables
// batching; zero or negative keeps DefaultBatchSize; values beyond
// MaxBatchSize are capped.
func WithBatchSize(n int) Option {
	return func(cfg *Config) { cfg.BatchSize = n }
}

// WithCommandEpoch pins the server's command epoch instead of deriving
// it from the construction wall time. Tests use it to make the command
// channel deterministic; live servers should let the default stand so a
// restarted server always supersedes its predecessor.
func WithCommandEpoch(epoch uint64) Option {
	return func(cfg *Config) { cfg.CommandEpoch = epoch }
}

// WithFrameHook subscribes hook to every accepted frame: the node ID
// and whether the frame advanced the node's session epoch (reporter
// restart). The treatment controller's OnFrame is the intended
// subscriber. The hook runs on the shard worker goroutine and must be
// non-blocking.
func WithFrameHook(hook func(node uint32, restarted bool)) Option {
	return func(cfg *Config) { cfg.FrameHook = hook }
}

// New validates the options and builds an idle server ingesting into w;
// register nodes with RegisterNode, then bind it with Listen.
func New(w *core.Watchdog, opts ...Option) (*Server, error) {
	cfg := Config{Watchdog: w}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Watchdog = w // the watchdog is New's contract, not an option
	return newServer(cfg)
}
