// Metrics endpoint for swwdmon: -metrics addr serves the watchdog's
// telemetry Snapshot in stdlib-only forms on one listener:
//
//	/metrics     Prometheus text exposition (internal/export; no
//	             client library): per-runnable beat and fault counters,
//	             the cumulative detection results, journal occupancy,
//	             drop accounting and sequence head, the sweep-duration
//	             histogram and the Service tick/overrun drift counters.
//	/healthz     JSON readiness: monitoring-cycle liveness and, when
//	             -push-url is set, the push sink's delivery health.
//	/debug/vars  expvar JSON; the full Snapshot is published under the
//	             "swwd" key next to the usual memstats.
//	/debug/pprof net/http/pprof profiles.
//
// The /metrics endpoint and the push sink (-push-url) share one
// export.Exporter: a scrape refills one reused snapshot and buffer
// through Service.SnapshotInto, so it allocates only the HTTP response
// plumbing and never touches the heartbeat hot path.
package main

import (
	"expvar"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"sync"
	"time"

	"swwd"
	"swwd/internal/export"
)

// metricsServer serves a Service's telemetry for scraping and pushing.
type metricsServer struct {
	svc *swwd.Service
	exp *export.Exporter
	// push is the optional push sink (nil without -push-url).
	push *export.Pusher
}

// newMetricsServer builds the exporter, labelling runnables by spec name.
func newMetricsServer(svc *swwd.Service, sys *swwd.System) *metricsServer {
	names := make([]string, sys.Model.NumRunnables())
	for i := range names {
		if r, err := sys.Model.Runnable(swwd.RunnableID(i)); err == nil {
			names[i] = r.Name
		}
	}
	return &metricsServer{svc: svc, exp: export.NewExporter(svc.SnapshotInto, names)}
}

// serve mounts the handlers and blocks on the listener. The default mux
// already carries expvar's /debug/vars and pprof's /debug/pprof.
func (m *metricsServer) serve(addr string) error {
	http.Handle("/metrics", m.exp)
	http.Handle("/healthz", m.health())
	expvar.Publish("swwd", expvar.Func(func() any {
		return m.svc.Snapshot()
	}))
	return http.ListenAndServe(addr, nil)
}

// health assembles the /healthz probe set: the monitoring cycle must
// advance between requests, and a configured push sink must deliver.
func (m *metricsServer) health() *export.Health {
	h := &export.Health{}
	var lastMu sync.Mutex
	var lastCycle uint64
	var lastSeen time.Time
	h.Register(func() export.Check {
		s := m.svc.Snapshot()
		lastMu.Lock()
		defer lastMu.Unlock()
		now := time.Now()
		// Healthy unless the cycle counter sat still across two probes
		// spaced at least two cycle periods apart.
		healthy := true
		if !lastSeen.IsZero() && s.Cycle == lastCycle &&
			now.Sub(lastSeen) >= 2*m.svc.Watchdog().CyclePeriod() {
			healthy = false
		}
		if s.Cycle != lastCycle || healthy {
			lastCycle, lastSeen = s.Cycle, now
		}
		return export.Check{
			Name:    "cycle",
			Healthy: healthy,
			Detail:  fmt.Sprintf("cycle=%d ticks=%d overruns=%d", s.Cycle, s.Driver.Ticks, s.Driver.Overruns),
		}
	})
	if m.push != nil {
		h.Register(func() export.Check {
			st := m.push.Stats()
			return export.Check{
				Name:    "push",
				Healthy: m.push.Healthy(4 * export.DefaultPushInterval),
				Detail:  fmt.Sprintf("delivered=%d dropped=%d backlog=%d", st.Delivered, st.Dropped, st.Backlog),
			}
		})
	}
	return h
}
