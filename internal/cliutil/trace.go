package cliutil

import (
	"flag"
	"io"

	horus "repro"
)

// TraceFlags bundles the event-timeline tracing flags shared by the horus
// commands: -trace exports the drain's resource timeline as Chrome
// trace-event JSON, -trace-attrib prints the critical-path attribution
// table, -trace-events bounds the recorder.
type TraceFlags struct {
	Path   string
	Attrib bool
	Limit  int
}

// AddTraceFlags registers the shared tracing flags on the default flag set;
// call before flag.Parse.
func AddTraceFlags() *TraceFlags {
	tf := &TraceFlags{}
	flag.StringVar(&tf.Path, "trace", "", "write the drain event timeline as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	flag.BoolVar(&tf.Attrib, "trace-attrib", false, "print the drain critical-path attribution table (per-resource share of the drain time)")
	flag.IntVar(&tf.Limit, "trace-events", 0, "cap on recorded timeline events (0 = default limit, negative = unlimited)")
	return tf
}

// Enabled reports whether any timeline output was requested.
func (tf *TraceFlags) Enabled() bool { return tf.Path != "" || tf.Attrib }

// Recorder returns a fresh timeline recorder when tracing was requested,
// else nil (recording disabled, one pointer check per reservation).
func (tf *TraceFlags) Recorder() *horus.TimelineRecorder {
	if !tf.Enabled() {
		return nil
	}
	return horus.NewTimelineRecorder(tf.Limit)
}

// WriteTrace exports the recordings to the configured -trace path. No-op
// when -trace was not given.
func (tf *TraceFlags) WriteTrace(recs ...*horus.TimelineRecording) error {
	if tf.Path == "" {
		return nil
	}
	return WriteFile(tf.Path, func(w io.Writer) error { return horus.WriteChromeTrace(w, recs...) })
}
