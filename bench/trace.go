package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
// Times are nanoseconds since the run started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A run keeps at most maxSpans spans (about 11 MB); the measured phase may
// fill all but replaySpans of them, so the replay's spans always fit. Spans
// past a cap are counted, not kept.
const (
	maxSpans    = 200_000
	replaySpans = 20_000
)

// tracer keeps spans in memory for the length of a run and writes them as
// JSON lines when the run ends. A nil tracer records nothing, so untraced
// code paths call it unconditionally. Safe for concurrent clients.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	limit   int // current cap on len(spans)
	dropped int64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, maxSpans), limit: maxSpans - replaySpans}
}

// openReplay lifts the cap to maxSpans for the replay's spans.
func (t *tracer) openReplay() {
	t.mu.Lock()
	t.limit = maxSpans
	t.mu.Unlock()
}

// add records a span and returns its ID (0 when the tracer is nil or full).
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// finish sets the end of a span opened before its children were known.
func (t *tracer) finish(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
