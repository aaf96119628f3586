package cliutil

import (
	"flag"
	"io"

	horus "repro"
)

// ForensicFlags bundles the detection-forensics flags shared by the horus
// commands: -explain prints the forensic provenance table for every
// detection, -evlog writes the flight recorder's records as JSON lines,
// -evlog-events bounds the recorder.
type ForensicFlags struct {
	Explain bool
	Path    string
	Limit   int
}

// AddForensicFlags registers the shared forensics flags on the default flag
// set; call before flag.Parse.
func AddForensicFlags() *ForensicFlags {
	ff := &ForensicFlags{}
	flag.BoolVar(&ff.Explain, "explain", false, "print the detection-forensics table (failing check, region and flight-recorder provenance per detection)")
	flag.StringVar(&ff.Path, "evlog", "", "write the detection flight recorder as JSON lines to this file")
	flag.IntVar(&ff.Limit, "evlog-events", 0, "cap on retained flight-recorder events (0 = default limit)")
	return ff
}

// Enabled reports whether any forensic output was requested.
func (ff *ForensicFlags) Enabled() bool { return ff.Explain || ff.Path != "" }

// Log returns a fresh flight recorder when forensics were requested, else
// nil (recording disabled, one pointer check per event).
func (ff *ForensicFlags) Log() *horus.Evlog {
	if !ff.Enabled() {
		return nil
	}
	return horus.NewEvlog(ff.Limit)
}

// WriteJSONL exports the records to the configured -evlog path. No-op when
// -evlog was not given.
func (ff *ForensicFlags) WriteJSONL(recs ...horus.EvlogRecord) error {
	if ff.Path == "" {
		return nil
	}
	return WriteFile(ff.Path, func(w io.Writer) error { return horus.WriteEvlogJSONL(w, recs...) })
}
