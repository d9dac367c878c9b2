package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// csvHeader is the column layout of the CSV interchange format. It mirrors
// the per-session fields the paper's dataset exposes.
var csvHeader = []string{
	"user", "content", "isp", "exchange", "start_sec", "duration_sec", "bitrate_kbps",
}

// WriteCSV serialises the trace sessions as CSV with a header row. Trace
// metadata (horizon, population sizes) is carried in a leading comment
// line so that ReadCSV can reconstruct the full Trace.
func (t *Trace) WriteCSV(w io.Writer) error {
	// bufio.Writer errors are sticky: a failed write of the meta or
	// header line surfaces at the next Write or at Flush.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#meta name=%s epoch=%s horizon=%d users=%d content=%d isps=%d\n",
		t.Name, t.Epoch.Format(time.RFC3339), t.HorizonSec, t.NumUsers, t.NumContent, t.NumISPs)
	bw.WriteString(strings.Join(csvHeader, ",") + "\n")
	var row []byte
	for _, s := range t.Sessions {
		row = AppendSessionCSV(row[:0], s)
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("trace: write csv: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write csv: %w", err)
	}
	return nil
}

// AppendSessionCSV appends one session as a bare interchange CSV row
// (the csvHeader columns, newline-terminated) to dst — the inverse of
// ReadSessionsCSV for a single row. No field needs quoting: every
// column is numeric.
func AppendSessionCSV(dst []byte, s Session) []byte {
	dst = strconv.AppendUint(dst, uint64(s.UserID), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(s.ContentID), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(s.ISP), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(s.Exchange), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, s.StartSec, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s.DurationSec), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s.Bitrate), 10)
	return append(dst, '\n')
}

// ReadCSV parses a trace previously produced by WriteCSV. It is the
// materialising counterpart of NewScanner: the whole session list is
// loaded into memory and validated as a Trace.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	meta := sc.Meta()
	t := &Trace{
		Name:       meta.Name,
		Epoch:      meta.Epoch,
		HorizonSec: meta.HorizonSec,
		NumUsers:   meta.NumUsers,
		NumContent: meta.NumContent,
		NumISPs:    meta.NumISPs,
	}
	for sc.Scan() {
		t.Sessions = append(t.Sessions, sc.Session())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// No trailing t.Validate(): the scanner has already enforced every
	// invariant it checks — metadata, per-session ranges, start order —
	// row by row, and repeating it would double the cost on month-scale
	// traces.
	return t, nil
}

// parseMeta decodes the "#meta k=v ..." comment line.
func parseMeta(line string, t *Meta) error {
	const prefix = "#meta "
	if !strings.HasPrefix(line, prefix) {
		return fmt.Errorf("trace: missing #meta line, got %q", truncate(line, 40))
	}
	fields := strings.Fields(line[len(prefix):])
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			return fmt.Errorf("trace: malformed meta field %q", f)
		}
		key, value := f[:eq], f[eq+1:]
		var err error
		switch key {
		case "name":
			t.Name = value
		case "epoch":
			t.Epoch, err = time.Parse(time.RFC3339, value)
		case "horizon":
			t.HorizonSec, err = strconv.ParseInt(value, 10, 64)
		case "users":
			t.NumUsers, err = strconv.Atoi(value)
		case "content":
			t.NumContent, err = strconv.Atoi(value)
		case "isps":
			t.NumISPs, err = strconv.Atoi(value)
		default:
			// Unknown keys are ignored for forward compatibility.
		}
		if err != nil {
			return fmt.Errorf("trace: meta field %q: %w", key, err)
		}
	}
	return nil
}

// ReadSessionsCSV parses a bare batch of session rows — the CSV
// interchange columns without the leading #meta line, optionally
// preceded by the header row — as pushed to the live ingest endpoint in
// chunks. Sessions are parsed syntactically but not validated against
// any metadata: a live consumer (the ingest queue) owns that check,
// since only it knows the stream the batch lands in. Parsing runs
// through the same fast CSV lane as the Scanner, on a pooled reader.
func ReadSessionsCSV(r io.Reader) ([]Session, error) {
	rr := batchReaders.Get().(*recordReader)
	rr.ls.reset(r)
	// The sessions are values, so nothing returned aliases the buffer.
	defer recycleBatchReader(rr)
	var out []Session
	first := true
	for {
		fields, err := rr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read session batch: %w", err)
		}
		if first {
			first = false
			if len(fields) > 0 && string(fields[0]) == csvHeader[0] {
				continue
			}
		}
		s, err := parseSessionFields(fields)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// batchReaders recycles ReadSessionsCSV's record readers. A live batch
// is a few kilobytes, pushed many times a second: a fresh lineBufSize
// buffer per batch would dwarf the sessions parsed from it. The
// Scanner, which reads one stream for its whole life, keeps its own.
var batchReaders = sync.Pool{New: func() any { return newRecordReader(nil) }}

// recycleBatchReader returns rr to the pool unless a long line or
// quoted record grew one of its buffers past lineBufSize, which would
// pin that much memory per pooled reader.
func recycleBatchReader(rr *recordReader) {
	rr.ls.reset(nil)
	if len(rr.ls.buf) == lineBufSize && cap(rr.rec) <= lineBufSize {
		batchReaders.Put(rr)
	}
}

// WriteJSON serialises the whole trace as one JSON document.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

// ReadJSON parses a trace produced by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// truncate shortens s for error messages.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
