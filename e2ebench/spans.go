package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// origin is the instant every span's start is measured from.
var origin = time.Now()

// span is one timed call the benchmark made into a layer; parent is the
// span that caused it (0 for none).
type span struct {
	name       string
	id, parent int64
	start, dur time.Duration
}

// maxSpans bounds one log's memory; spans beyond it are counted, not kept.
const maxSpans = 1 << 20

// spanLog keeps the traced run's spans in memory until the run writes them
// out at exit. A nil *spanLog records nothing, which is what keeps the
// untraced runs untraced. Only the benchmark's main goroutine, which also
// runs the serve client, appends to it.
type spanLog struct {
	ids     int64
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{} }

// id reserves a span id, so a span's children can name it before it ends.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	l.ids++
	return l.ids
}

func (l *spanLog) record(id, parent int64, name string, t0, t1 time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) == maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, start: t0.Sub(origin), dur: t1.Sub(t0)})
}

// add records a span from t0 to t1 and returns its id.
func (l *spanLog) add(name string, parent int64, t0, t1 time.Time) int64 {
	id := l.id()
	l.record(id, parent, name, t0, t1)
	return id
}

// timed runs f, records it as a span under parent and returns its
// duration.
func (l *spanLog) timed(name string, parent int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.add(name, parent, t0, t1)
	return t1.Sub(t0)
}

// counts returns the spans kept and dropped.
func (l *spanLog) counts() (kept, dropped int) { return len(l.spans), l.dropped }

// write saves every span as one tab-separated line: name, id, parent id,
// and start and duration in nanoseconds since the process started.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tdur_ns")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.start.Nanoseconds(), s.dur.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
