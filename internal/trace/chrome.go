package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeWriter exports the stream in the Chrome trace-event JSON format,
// which ui.perfetto.dev and chrome://tracing open directly. The mapping:
//
//   - each core becomes a process (pid = core index, named "core N");
//   - each (core, VCPU) pair becomes a thread track (named after the
//     VCPU), so per-VCPU execution reads as one lane per server;
//   - EvExecSlice becomes a complete ("X") duration event named after the
//     running task, or "(budget idle)" for idle budget consumption;
//   - EvDeadlineMiss becomes a thread-scoped instant marker on the
//     missing task's lane; EvThrottle a process-scoped instant marker on
//     the throttled core.
//
// Other event types carry no visual information beyond the above and are
// skipped; export them with JSONLWriter when completeness matters. Ticks
// are microseconds, which is exactly the "ts"/"dur" unit the format
// expects, so timestamps pass through unconverted.
//
// ChromeWriter streams: events are written as they arrive and only the
// (core, VCPU) -> tid table is retained, so it handles huge horizons. The
// JSON object is completed by Close.
type ChromeWriter struct {
	doc  ChromeDoc
	tids map[chromeKey]int
}

type chromeKey struct {
	core int
	vcpu string
}

// ChromeEvent is one trace-event record; field order fixes the output
// byte-for-byte, which the golden-file tests rely on.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewChromeWriter wraps w. The caller owns w; call Close to complete the
// JSON document before closing the underlying file.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	return &ChromeWriter{doc: ChromeDoc{w: w}, tids: map[chromeKey]int{}}
}

// Record implements Sink. A nil writer drops everything.
func (c *ChromeWriter) Record(ev Event) {
	if c == nil {
		return
	}
	switch ev.Type {
	case EvExecSlice:
		name := ev.Task
		if name == "" {
			name = "(budget idle)"
		}
		dur := int64(ev.Time - ev.Start)
		if dur <= 0 {
			dur = 1 // the format treats dur<=0 as malformed
		}
		c.doc.Event(ChromeEvent{
			Name: name, Cat: "exec", Phase: "X",
			TS: int64(ev.Start), Dur: dur,
			PID: ev.Core, TID: c.tid(ev.Core, ev.VCPU),
		})
	case EvDeadlineMiss:
		c.doc.Event(ChromeEvent{
			Name: "miss " + ev.Task, Cat: "deadline", Phase: "i",
			TS: int64(ev.Time), PID: ev.Core, TID: c.tid(ev.Core, ev.VCPU),
			Scope: "t",
			Args:  map[string]any{"demand_left_us": int64(ev.Demand)},
		})
	case EvThrottle:
		c.doc.Event(ChromeEvent{
			Name: "throttle", Cat: "regulation", Phase: "i",
			TS: int64(ev.Time), PID: ev.Core, TID: c.tid(ev.Core, ev.VCPU),
			Scope: "p",
		})
	}
}

// tid returns the thread id for the (core, vcpu) pair, emitting the
// process/thread naming metadata on first sight.
func (c *ChromeWriter) tid(core int, vcpu string) int {
	if vcpu == "" {
		vcpu = "(none)"
	}
	k := chromeKey{core, vcpu}
	if tid, ok := c.tids[k]; ok {
		return tid
	}
	tid := len(c.tids) + 1
	c.tids[k] = tid
	// Name the process once, on its first thread.
	first := true
	for other := range c.tids { //vc2m:ordered existence scan; no order dependence
		if other.core == core && other != k {
			first = false
			break
		}
	}
	if first {
		c.doc.Event(ChromeEvent{
			Name: "process_name", Phase: "M", PID: core,
			Args: map[string]any{"name": fmt.Sprintf("core %d", core)},
		})
	}
	c.doc.Event(ChromeEvent{
		Name: "thread_name", Phase: "M", PID: core, TID: tid,
		Args: map[string]any{"name": vcpu},
	})
	return tid
}

// Close completes the JSON document and returns the first error seen. It
// does not close the underlying writer. Closing a writer that recorded no
// events still produces a valid, empty trace document; closing a nil
// writer is a no-op.
func (c *ChromeWriter) Close() error {
	if c == nil {
		return nil
	}
	return c.doc.Close()
}

// WriteChrome exports a complete event slice as a Chrome trace-event JSON
// document — the one-shot form of ChromeWriter used by the CLI converter.
func WriteChrome(w io.Writer, events []Event) error {
	cw := NewChromeWriter(w)
	for _, ev := range events {
		cw.Record(ev)
	}
	return cw.Close()
}

// chromeHeader opens every document; an empty one closes right after it.
const chromeHeader = `{"displayTimeUnit":"ms","traceEvents":[`

// ChromeDoc writes the envelope of one Chrome trace-event JSON document:
// the opening and closing of the document, the comma between records, and
// the first error, after which every later call is a no-op. ChromeWriter
// and the span exporter in package obs both write through it.
type ChromeDoc struct {
	w       io.Writer
	started bool
	err     error
}

// NewChromeDoc starts a document on w. Call Close to complete it.
func NewChromeDoc(w io.Writer) *ChromeDoc { return &ChromeDoc{w: w} }

// Event appends one record to the document.
func (d *ChromeDoc) Event(ev ChromeEvent) {
	if d.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		d.err = fmt.Errorf("trace: chrome encode: %w", err)
		return
	}
	prefix := ",\n"
	if !d.started {
		prefix = chromeHeader + "\n"
		d.started = true
	}
	if _, err := io.WriteString(d.w, prefix); err != nil {
		d.err = fmt.Errorf("trace: chrome write: %w", err)
		return
	}
	if _, err := d.w.Write(data); err != nil {
		d.err = fmt.Errorf("trace: chrome write: %w", err)
	}
}

// Close completes the document and returns the first error seen. It does
// not close the underlying writer. A document with no records is still a
// valid, empty trace.
func (d *ChromeDoc) Close() error {
	if d.err != nil {
		return d.err
	}
	tail := "\n]}\n"
	if !d.started {
		tail = chromeHeader + "]}\n"
	}
	if _, err := io.WriteString(d.w, tail); err != nil {
		d.err = fmt.Errorf("trace: chrome write: %w", err)
	}
	return d.err
}
