package export

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// This file implements swwdd's /healthz readiness surface: named probe
// functions registered by each subsystem (monitoring-cycle advance, WAL
// writer liveness, last-fsync age, push-sink backlog, ingest listeners)
// are evaluated per request and rendered as JSON. The endpoint answers
// 200 when every probe passes and 503 otherwise, so an orchestrator's
// readiness check needs no body parsing — the body is for humans and
// incident tooling.

// Check is the result of one readiness probe.
type Check struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	// Detail explains a failure (or carries a freshness figure on
	// success); may be empty.
	Detail string `json:"detail,omitempty"`
}

// CheckFunc is one registered probe. It must be safe for concurrent
// use and cheap: it runs on every /healthz request.
type CheckFunc func() Check

// Health is a registry of readiness probes with an http.Handler face.
// The zero value is ready to use and reports healthy with no checks.
type Health struct {
	mu     sync.Mutex
	checks []CheckFunc
}

// Register adds a probe. Probes are evaluated in registration order.
func (h *Health) Register(fn CheckFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks = append(h.checks, fn)
}

// healthReport is the /healthz JSON body.
type healthReport struct {
	Status string  `json:"status"`
	Checks []Check `json:"checks"`
}

// Evaluate runs every probe and reports the aggregate.
func (h *Health) Evaluate() (bool, []Check) {
	h.mu.Lock()
	fns := append([]CheckFunc(nil), h.checks...)
	h.mu.Unlock()
	ok := true
	checks := make([]Check, 0, len(fns))
	for _, fn := range fns {
		c := fn()
		ok = ok && c.Healthy
		checks = append(checks, c)
	}
	sort.SliceStable(checks, func(i, j int) bool { return checks[i].Name < checks[j].Name })
	return ok, checks
}

// ServeHTTP renders the readiness report: 200 when every probe passes,
// 503 otherwise, with a JSON body either way.
func (h *Health) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ok, checks := h.Evaluate()
	rep := healthReport{Status: "ok", Checks: checks}
	code := http.StatusOK
	if !ok {
		rep.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(body)
	w.Write([]byte("\n"))
}
