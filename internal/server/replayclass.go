package server

import (
	"net/http"
	"time"

	"pathquery/internal/telemetry"
	"pathquery/internal/workload"
)

// WorkloadClassHeader is the request header a replay driver sets to tag
// each request with its abstract workload class ("AQ1".."AQ28"), so a
// live server can split request latency per class in /metrics.
const WorkloadClassHeader = "X-Workload-Class"

// observeWorkloadClass records one request latency into the per-class
// replay histogram when r carries a valid workload-class header. The
// class value is validated against the fixed AQ1–AQ28 table before it
// becomes a label — a client-chosen string must never mint a metric
// series.
func observeWorkloadClass(reg *telemetry.Registry, r *http.Request, tenant string, d time.Duration) {
	class := r.Header.Get(WorkloadClassHeader)
	if class == "" || !workload.ValidClass(class) {
		return
	}
	reg.Histogram("pathquery_replay_class_seconds",
		"Replayed request latency by abstract workload class (X-Workload-Class).",
		telemetry.Label{Key: "tenant", Value: tenant},
		telemetry.Label{Key: "class", Value: class}).Observe(d)
}
