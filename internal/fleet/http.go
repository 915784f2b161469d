package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"

	"verikern/internal/obs"
)

// NewMux builds the observatory HTTP surface shared by `kzm-sim
// -serve` and the fleet coordinator:
//
//	/metrics        Prometheus text exposition (+ the verikern_fleet_*
//	                family when status != nil) + build_info
//	/snapshot.json  the merged JSON snapshot
//	/fleet.json     per-shard fleet health (only when status != nil)
//	/debug/pprof/*  the standard runtime profiler endpoints
//
// snapshot is called per request, so handlers always render live
// state; both callbacks must be safe for concurrent use.
func NewMux(snapshot func() *obs.Snapshot, status func() Status) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := s.WritePrometheus(w); err != nil {
			return
		}
		if status != nil {
			writeStatusProm(w, status())
		}
		writeBuildInfo(w, s.Arch)
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = snapshot().WriteJSON(w)
	})
	if status != nil {
		mux.HandleFunc("/fleet.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			b, err := json.MarshalIndent(status(), "", " ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(append(b, '\n'))
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeBuildInfo appends the build-identity info metric to a
// Prometheus exposition: which Go toolchain, host platform and
// simulated arch backend this observatory process runs.
func writeBuildInfo(w http.ResponseWriter, archID string) {
	if archID == "" {
		archID = "unknown"
	}
	fmt.Fprintf(w, "# HELP verikern_build_info Build and architecture identity of this observatory process.\n")
	fmt.Fprintf(w, "# TYPE verikern_build_info gauge\n")
	fmt.Fprintf(w, "verikern_build_info{go_version=%q,host=%q,arch=%q,pid=\"%d\"} 1\n",
		runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH, archID, os.Getpid())
}

// writeStatusProm renders the campaign-level fleet health as the
// verikern_fleet_* family, with the values /fleet.json serves. Merged
// ops and samples are not repeated: they are verikern_soak_ops_total
// and the all-sources latency count of the snapshot.
func writeStatusProm(w io.Writer, st Status) {
	for _, m := range []struct {
		name, typ, help string
		v               any
	}{
		{"total_ops", "gauge", "Op budget of the whole campaign.", st.TotalOps},
		{"completed", "gauge", "1 once every shard reached its budget.", b2i(st.Completed)},
		{"draining", "gauge", "1 while the coordinator drains its workers.", b2i(st.Draining)},
		{"degraded", "gauge", "1 while an unfinished shard has no live lease.", b2i(st.Degraded)},
		{"batches_total", "counter", "Batches merged.", st.Batches},
		{"dropped_total", "counter", "Batches refused at admission (stale, foreign, over budget or malformed).", st.Dropped},
		{"merge_nanoseconds_total", "counter", "Wall time spent merging batches.", st.MergeNS},
		{"restarts_total", "counter", "Shard leases lost before completion.", st.Restarts},
		{"retries_total", "counter", "Worker reconnect attempts reported at hello.", st.Retries},
		{"releases_total", "counter", "Leases reclaimed by the lease-timeout reaper.", st.Releases},
		{"frames_corrupt_total", "counter", "Frames that failed length, checksum or type validation.", st.FramesCorrupt},
		{"quarantined_total", "counter", "Connections severed after repeated corrupt frames.", st.Quarantined},
		{"recoveries_total", "counter", "Reclaimed shards leased again.", st.Recoveries},
		{"recovery_p99_milliseconds", "gauge", "99th percentile of recent ownerless times of reclaimed shards.", st.RecoveryP99MS},
		{"snapshot_age_milliseconds", "gauge", "Wall time since the last merge (-1 before the first).", st.SnapshotAgeMS},
	} {
		fmt.Fprintf(w, "# HELP verikern_fleet_%s %s\n# TYPE verikern_fleet_%s %s\nverikern_fleet_%s %v\n",
			m.name, m.help, m.name, m.typ, m.name, m.v)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
