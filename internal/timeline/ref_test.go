package timeline

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// refAnalyze and refWriteChromeTrace are the straightforward consumers the
// production ones replaced: Analyze sorting whole Event structs under the
// seven-field key (Done, Ready, kind priority, Track, Start, Op, Label), and
// WriteChromeTrace formatting each event with fmt. They are kept verbatim
// as differential oracles. On recordings with no two filtered events equal
// on that seven-field key, the production consumers must reproduce their
// attributions and bytes exactly.
func refAnalyze(rec *Recording) Attribution {
	att := Attribution{}
	if rec == nil {
		return att
	}
	att.Episode = rec.Episode
	att.Total = rec.Total
	att.Dropped = rec.Dropped
	if rec.Total <= 0 {
		return att
	}

	evs := make([]Event, 0, len(rec.Events))
	for _, e := range rec.Events {
		if e.Done > e.Ready && e.Done <= rec.Total {
			evs = append(evs, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Done != b.Done {
			return a.Done < b.Done
		}
		if a.Ready != b.Ready {
			return a.Ready < b.Ready
		}
		if p, q := kindPriority(a.Kind), kindPriority(b.Kind); p != q {
			return p < q
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Label < b.Label
	})

	var steps []PathStep
	add := func(s PathStep) {
		if s.To <= s.From {
			return
		}
		steps = append(steps, s)
	}

	cursor := rec.Total
	for cursor > 0 {
		idx := sort.Search(len(evs), func(i int) bool { return evs[i].Done > cursor }) - 1
		if idx < 0 {
			add(PathStep{From: 0, To: cursor, Resource: "idle", Phase: "idle"})
			break
		}
		done := evs[idx].Done
		if done < cursor {
			add(PathStep{From: done, To: cursor, Resource: "idle", Phase: "idle"})
			cursor = done
			continue
		}
		lo := idx
		for lo > 0 && evs[lo-1].Done == done {
			lo--
		}
		ev := evs[lo]
		start := ev.Start
		if start > cursor {
			start = cursor
		}
		add(PathStep{From: start, To: cursor, Resource: ev.Kind, Phase: "service",
			Track: ev.Track, Op: ev.Op, Label: ev.Label, Stage: ev.Stage})
		add(PathStep{From: ev.Ready, To: start, Resource: ev.Kind, Phase: "wait",
			Track: ev.Track, Op: ev.Op, Label: ev.Label, Stage: ev.Stage})
		cursor = ev.Ready
	}

	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	merged := steps[:0]
	for _, s := range steps {
		if n := len(merged); n > 0 {
			p := &merged[n-1]
			if p.To == s.From && p.Resource == s.Resource && p.Phase == s.Phase &&
				p.Track == s.Track && p.Op == s.Op && p.Label == s.Label && p.Stage == s.Stage {
				p.To = s.To
				continue
			}
		}
		merged = append(merged, s)
	}
	att.Steps = merged

	byClass := map[string]*ResourceShare{}
	var classes []string
	for _, s := range att.Steps {
		sh, ok := byClass[s.Resource]
		if !ok {
			sh = &ResourceShare{Resource: s.Resource}
			byClass[s.Resource] = sh
			if s.Resource != "idle" {
				classes = append(classes, s.Resource)
			}
		}
		if s.Phase == "wait" {
			sh.Wait += s.To - s.From
		} else {
			sh.Service += s.To - s.From
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		if p, q := kindPriority(classes[i]), kindPriority(classes[j]); p != q {
			return p < q
		}
		return classes[i] < classes[j]
	})
	for _, c := range classes {
		att.Shares = append(att.Shares, *byClass[c])
	}
	if idle, ok := byClass["idle"]; ok {
		att.Shares = append(att.Shares, *idle)
	}
	return att
}

func refWriteChromeTrace(w io.Writer, recs ...*Recording) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}

	pid := 0
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		pid++
		name := rec.Episode
		if name == "" {
			name = fmt.Sprintf("episode %d", pid)
		}
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			pid, strconv.Quote(name)))

		tracks := rec.Tracks()
		tid := map[string]int{}
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"thread_name","args":{"name":"critical-path"}}`, pid))
		for i, tr := range tracks {
			tid[tr] = i + 1
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				pid, i+1, strconv.Quote(tr)))
		}

		for _, s := range refAnalyze(rec).Steps {
			label := s.Resource
			if s.Phase != "service" {
				label += " " + s.Phase
			}
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":0,"ts":%s,"dur":%s,"name":%s,"cat":"critical-path","args":{"from_ps":%d,"to_ps":%d,"track":%s,"op":%s}}`,
				pid, refUsec(int64(s.From)), refUsec(int64(s.To-s.From)),
				strconv.Quote(label), int64(s.From), int64(s.To),
				strconv.Quote(s.Track), strconv.Quote(refOpLabel(s.Op, s.Label))))
		}

		for _, e := range rec.Events {
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":%s,"args":{"ready_ps":%d,"start_ps":%d,"end_ps":%d,"done_ps":%d,"stage":%s}}`,
				pid, tid[e.Track], refUsec(int64(e.Start)), refUsec(int64(e.End-e.Start)),
				strconv.Quote(refOpLabel(e.Op, e.Label)), strconv.Quote(e.Kind),
				int64(e.Ready), int64(e.Start), int64(e.End), int64(e.Done),
				strconv.Quote(e.Stage)))
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

func refOpLabel(op, label string) string {
	switch {
	case op == "":
		return label
	case label == "":
		return op
	}
	return op + " " + label
}

func refUsec(ps int64) string {
	neg := ""
	if ps < 0 {
		neg, ps = "-", -ps
	}
	return fmt.Sprintf("%s%d.%06d", neg, ps/1_000_000, ps%1_000_000)
}
