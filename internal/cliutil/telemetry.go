package cliutil

import (
	"flag"
	"fmt"
	"os"
	"time"

	horus "repro"
)

// TelemetryFlags bundles the live-telemetry flags shared by the horus
// commands: -serve exposes the monitoring HTTP server (/metrics, /healthz,
// /timeseries.json, SSE /progress), -ts writes the recorded sim-time series
// to a file, -ts-window / -ts-cap tune the sampler, -progress prints a live
// stderr line per finished episode, -serve-linger keeps the server up after
// the run so a scraper can collect final state.
type TelemetryFlags struct {
	ServeAddr string
	Linger    time.Duration
	TSPath    string
	WindowNs  int64
	Capacity  int
	Progress  bool

	sampler *horus.TimeseriesSampler
	server  *horus.MonitorServer
}

// AddTelemetryFlags registers the shared telemetry flags on the default
// flag set; call before flag.Parse. withProgress additionally registers
// -progress (the sweep-shaped commands).
func AddTelemetryFlags(withProgress bool) *TelemetryFlags {
	tf := &TelemetryFlags{}
	flag.StringVar(&tf.ServeAddr, "serve", "", "serve live telemetry over HTTP on this address (e.g. :8080 or 127.0.0.1:0): /metrics, /healthz, /timeseries.json, SSE /progress")
	flag.DurationVar(&tf.Linger, "serve-linger", 0, "keep the -serve endpoint up this long after the run completes (lets a scraper collect final state)")
	flag.StringVar(&tf.TSPath, "ts", "", "write the recorded sim-time series (the /timeseries.json document) to this file")
	flag.Int64Var(&tf.WindowNs, "ts-window", 0, "initial time-series bucket width in simulated nanoseconds (0 = 1 ns default; series coarsen automatically past -ts-cap points)")
	flag.IntVar(&tf.Capacity, "ts-cap", 0, "points retained per series before the window doubles (0 = 512 default)")
	if withProgress {
		flag.BoolVar(&tf.Progress, "progress", false, "print a live progress line to stderr: done/total, episodes/sec, ETA")
	}
	return tf
}

// Sampler returns the shared sampler when sim-time series are recorded —
// requested explicitly (-ts) or implied by the monitoring server (-serve) —
// else nil (recording disabled: one pointer check per event). The first
// call creates it; later calls return the same sampler.
func (tf *TelemetryFlags) Sampler() *horus.TimeseriesSampler {
	if tf.TSPath == "" && tf.ServeAddr == "" {
		return nil
	}
	if tf.sampler == nil {
		tf.sampler = horus.NewTimeseriesSampler(tf.WindowNs*1000, tf.Capacity)
	}
	return tf.sampler
}

// StartServer boots the monitoring server when -serve was given, exposing
// the registry and the shared sampler, and prints the bound address (which
// resolves ":0") to stderr. Call Shutdown to linger and close.
func (tf *TelemetryFlags) StartServer(reg *horus.MetricsRegistry) error {
	if tf.ServeAddr == "" {
		return nil
	}
	srv := horus.NewMonitorServer(reg, tf.Sampler())
	addr, err := srv.Start(tf.ServeAddr)
	if err != nil {
		return fmt.Errorf("-serve %s: %w", tf.ServeAddr, err)
	}
	tf.server = srv
	fmt.Fprintf(os.Stderr, "serving telemetry on http://%s/ (/metrics /healthz /timeseries.json /progress)\n", addr)
	return nil
}

// ProgressFunc builds the sweep progress callback combining the -progress
// stderr line and the -serve SSE stream; nil when neither is active (the
// engine then skips per-episode callback work entirely).
func (tf *TelemetryFlags) ProgressFunc() func(horus.SweepProgress) {
	srv := tf.server
	if !tf.Progress && srv == nil {
		return nil
	}
	return func(ev horus.SweepProgress) {
		if tf.Progress {
			eol := "\r"
			if ev.Done >= ev.Total {
				eol = "\n"
			}
			fmt.Fprintf(os.Stderr, "progress: %d/%d episodes (%.1f eps/sec, eta %s)   %s",
				ev.Done, ev.Total, ev.EpisodesPerSec(), ev.ETA().Round(100*time.Millisecond), eol)
		}
		if srv != nil {
			e := horus.MonitorProgressEvent{
				Done: ev.Done, Total: ev.Total, Index: ev.Index, Label: ev.Label,
				ElapsedMs: float64(ev.Elapsed) / float64(time.Millisecond),
				EpsPerSec: ev.EpisodesPerSec(),
				EtaMs:     float64(ev.ETA()) / float64(time.Millisecond),
			}
			if ev.Err != nil {
				e.Error = ev.Err.Error()
			}
			srv.Progress(e)
		}
	}
}

// WriteTimeseries exports the sampler to the -ts path. No-op unless -ts
// was given.
func (tf *TelemetryFlags) WriteTimeseries() error {
	if tf.TSPath == "" || tf.sampler == nil {
		return nil
	}
	return WriteFile(tf.TSPath, tf.sampler.WriteJSON)
}

// Shutdown completes the telemetry lifecycle: honours -serve-linger, then
// closes the server. Call once, after results are computed and written (so
// a lingering scraper sees final series).
func (tf *TelemetryFlags) Shutdown() {
	if tf.server == nil {
		return
	}
	if tf.Linger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %s before shutdown (-serve-linger)\n", tf.Linger)
		time.Sleep(tf.Linger)
	}
	tf.server.Close()
	tf.server = nil
}
