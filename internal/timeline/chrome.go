package timeline

import (
	"bufio"
	"io"
	"strconv"
)

// WriteChromeTrace exports one or more recordings as a Chrome trace-event
// JSON object (the format chrome://tracing and Perfetto load). Each
// recording becomes one process (pid) named after its episode; each
// resource track becomes one named thread, with a synthetic
// "critical-path" thread (tid 0) carrying the attribution steps so the
// binding resource is visible at a glance. Timestamps are microseconds, as
// the format requires; the exact picosecond bounds ride along in each
// event's args.
//
// Each trace event is appended into one reused byte buffer and written
// through a 64 KB bufio.Writer, so the export allocates per recording and
// per track, never per event.
func WriteChromeTrace(w io.Writer, recs ...*Recording) error {
	enc := chromeEncoder{w: bufio.NewWriterSize(w, 64<<10)}
	enc.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	pid := 0
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		pid++
		b := enc.begin('M', pid)
		b = append(b, `,"name":"process_name","args":{"name":`...)
		if rec.Episode == "" {
			b = append(b, `"episode `...)
			b = strconv.AppendInt(b, int64(pid), 10)
			b = append(b, '"')
		} else {
			b = appendQuote(b, rec.Episode)
		}
		if err := enc.end(b); err != nil {
			return err
		}

		b = enc.begin('M', pid)
		b = append(b, `,"tid":0,"name":"thread_name","args":{"name":"critical-path"`...)
		if err := enc.end(b); err != nil {
			return err
		}
		tid := map[string]int{}
		for i, tr := range rec.Tracks() {
			tid[tr] = i + 1
			b = enc.begin('M', pid)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(i+1), 10)
			b = append(b, `,"name":"thread_name","args":{"name":`...)
			b = appendQuote(b, tr)
			if err := enc.end(b); err != nil {
				return err
			}
		}

		for _, s := range Analyze(rec).Steps {
			b = enc.begin('X', pid)
			b = append(b, `,"tid":0,"ts":`...)
			b = appendUsec(b, int64(s.From))
			b = append(b, `,"dur":`...)
			b = appendUsec(b, int64(s.To-s.From))
			b = append(b, `,"name":`...)
			if s.Phase == "service" {
				b = appendQuote(b, s.Resource)
			} else {
				b = appendQuotedJoin(b, s.Resource, s.Phase)
			}
			b = append(b, `,"cat":"critical-path","args":{"from_ps":`...)
			b = strconv.AppendInt(b, int64(s.From), 10)
			b = append(b, `,"to_ps":`...)
			b = strconv.AppendInt(b, int64(s.To), 10)
			b = append(b, `,"track":`...)
			b = appendQuote(b, s.Track)
			b = append(b, `,"op":`...)
			b = appendQuotedOp(b, s.Op, s.Label)
			if err := enc.end(b); err != nil {
				return err
			}
		}

		for i := range rec.Events {
			// The visible slice is the reservation [Start, End): disjoint
			// per track by construction. Engine in-flight tails (Done past
			// the issue slot) ride along in args.
			e := &rec.Events[i]
			b = enc.begin('X', pid)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(tid[e.Track]), 10)
			b = append(b, `,"ts":`...)
			b = appendUsec(b, int64(e.Start))
			b = append(b, `,"dur":`...)
			b = appendUsec(b, int64(e.End-e.Start))
			b = append(b, `,"name":`...)
			b = appendQuotedOp(b, e.Op, e.Label)
			b = append(b, `,"cat":`...)
			b = appendQuote(b, e.Kind)
			b = append(b, `,"args":{"ready_ps":`...)
			b = strconv.AppendInt(b, int64(e.Ready), 10)
			b = append(b, `,"start_ps":`...)
			b = strconv.AppendInt(b, int64(e.Start), 10)
			b = append(b, `,"end_ps":`...)
			b = strconv.AppendInt(b, int64(e.End), 10)
			b = append(b, `,"done_ps":`...)
			b = strconv.AppendInt(b, int64(e.Done), 10)
			b = append(b, `,"stage":`...)
			b = appendQuote(b, e.Stage)
			if err := enc.end(b); err != nil {
				return err
			}
		}
	}
	enc.w.WriteString("\n]}\n")
	return enc.w.Flush()
}

// chromeEncoder writes trace events one at a time, each built in a single
// reused buffer.
type chromeEncoder struct {
	w      *bufio.Writer
	buf    []byte
	events int
}

// begin starts the next trace event in the reused buffer: the separator and
// the {"ph":..,"pid":.. prefix every event shares.
func (c *chromeEncoder) begin(ph byte, pid int) []byte {
	b := c.buf[:0]
	if c.events > 0 {
		b = append(b, ',')
	}
	c.events++
	b = append(b, "\n{\"ph\":\""...)
	b = append(b, ph)
	b = append(b, `","pid":`...)
	return strconv.AppendInt(b, int64(pid), 10)
}

// end closes the event's args object and the event, and writes it out.
func (c *chromeEncoder) end(b []byte) error {
	b = append(b, "}}"...)
	c.buf = b
	_, err := c.w.Write(b)
	return err
}

// appendQuote appends strconv.Quote(s). Simulator names are printable
// ASCII, which Quote copies through unchanged, so those skip its rune loop.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendQuotedOp appends the quoted op with its refining label ("write
// chv-data"), or whichever of the two is non-empty.
func appendQuotedOp(b []byte, op, label string) []byte {
	switch {
	case op == "":
		return appendQuote(b, label)
	case label == "":
		return appendQuote(b, op)
	}
	return appendQuotedJoin(b, op, label)
}

// appendQuotedJoin appends strconv.Quote(x + " " + y) without building the
// joined string. Quote escapes rune by rune, and an ASCII space can neither
// need escaping nor complete a partial UTF-8 sequence on either side, so the
// quoted join is the two quoted halves spliced at a space.
func appendQuotedJoin(b []byte, x, y string) []byte {
	b = appendQuote(b, x)
	b[len(b)-1] = ' '
	n := len(b)
	b = appendQuote(b, y)
	copy(b[n:], b[n+1:]) // drop y's opening quote
	return b[:len(b)-1]
}

// appendUsec appends picoseconds as decimal microseconds without float
// rounding: the integer part, then all six fractional digits.
func appendUsec(b []byte, ps int64) []byte {
	u := uint64(ps)
	if ps < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/1_000_000, 10)
	b = append(b, '.')
	frac := u % 1_000_000
	for d := uint64(100_000); d > 0; d /= 10 {
		b = append(b, byte('0'+frac/d%10))
	}
	return b
}

// usec renders picoseconds as decimal microseconds without float rounding.
func usec(ps int64) string { return string(appendUsec(nil, ps)) }
