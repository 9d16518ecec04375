package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// LineWriter is the buffered JSON-lines encoder behind the trace JSONL
// sink: one object per line, encoded through a buffered writer so memory
// use is constant in the stream length, first error retained and reported
// by Close, records after an error dropped.
type LineWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
	n   int
}

// NewLineWriter wraps w. The caller owns w; call Close to flush before
// closing the underlying file.
func NewLineWriter(w io.Writer) *LineWriter {
	bw := bufio.NewWriter(w)
	return &LineWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Encode writes v as one JSON line. The first error is retained (and
// reported by Close); subsequent values are dropped. A nil writer drops
// everything.
func (w *LineWriter) Encode(v any) {
	if w == nil {
		return
	}
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(v); err != nil {
		w.err = fmt.Errorf("trace: jsonl encode: %w", err)
		return
	}
	w.n++
}

// Count returns the number of values successfully encoded (0 on nil).
func (w *LineWriter) Count() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Err returns the first error encountered so far, without flushing.
func (w *LineWriter) Err() error {
	if w == nil {
		return nil
	}
	return w.err
}

// Close flushes buffered output and returns the first error encountered
// while encoding or flushing. It does not close the underlying writer.
// Closing a nil writer is a no-op.
func (w *LineWriter) Close() error {
	if w == nil {
		return nil
	}
	if err := w.bw.Flush(); w.err == nil && err != nil {
		w.err = fmt.Errorf("trace: jsonl flush: %w", err)
	}
	return w.err
}
