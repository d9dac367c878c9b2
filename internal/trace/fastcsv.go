package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
)

// This file is the fast CSV lane: a byte-slice record reader with
// inlined unsigned-integer parsing for the unquoted common case — the
// only case WriteCSV ever produces — that scans sessions with zero heap
// allocations. Records containing a quote fall back to encoding/csv
// semantics (including quoted fields spanning lines), so the lane
// accepts the same inputs the previous csv.Reader-based scanner did.

// numFields is the CSV interchange column count.
const numFields = 7

// lineScanner iterates the lines of an io.Reader through one reusable
// buffer. Returned lines alias the buffer and are valid only until the
// next call.
type lineScanner struct {
	r    io.Reader
	buf  []byte
	pos  int   // start of unconsumed bytes
	end  int   // end of buffered bytes
	rerr error // deferred read error (io.EOF after the last line)
}

const lineBufSize = 64 * 1024

func newLineScanner(r io.Reader) *lineScanner {
	return &lineScanner{r: r, buf: make([]byte, lineBufSize)}
}

// reset points the scanner at r, dropping whatever it had buffered.
func (ls *lineScanner) reset(r io.Reader) {
	ls.r, ls.pos, ls.end, ls.rerr = r, 0, 0, nil
}

// next returns the next line without its trailing newline (a trailing
// carriage return is stripped, matching encoding/csv's line handling).
// At end of input it returns io.EOF; a final line without a newline is
// returned first.
func (ls *lineScanner) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(ls.buf[ls.pos:ls.end], '\n'); i >= 0 {
			line := ls.buf[ls.pos : ls.pos+i]
			ls.pos += i + 1
			return trimCR(line), nil
		}
		if ls.rerr != nil {
			// Only a clean end of input salvages a final unterminated
			// line; a mid-line read failure must not surface the
			// truncated prefix as a parseable record.
			if ls.rerr == io.EOF && ls.pos < ls.end {
				line := ls.buf[ls.pos:ls.end]
				ls.pos = ls.end
				return trimCR(line), nil
			}
			return nil, ls.rerr
		}
		ls.fill()
	}
}

// fill reads more input, compacting or growing the buffer as needed.
func (ls *lineScanner) fill() {
	if ls.pos > 0 {
		copy(ls.buf, ls.buf[ls.pos:ls.end])
		ls.end -= ls.pos
		ls.pos = 0
	}
	if ls.end == len(ls.buf) {
		// A line longer than the buffer: grow it.
		grown := make([]byte, 2*len(ls.buf))
		copy(grown, ls.buf[:ls.end])
		ls.buf = grown
	}
	n, err := ls.r.Read(ls.buf[ls.end:])
	ls.end += n
	if err != nil {
		ls.rerr = err
	}
}

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// recordReader yields CSV records as field byte slices. Unquoted lines —
// the interchange format's only shape — are split in place with no
// allocation; lines containing a quote take the encoding/csv fallback.
type recordReader struct {
	ls     *lineScanner
	fields [numFields + 1][]byte
	rec    []byte // quote-fallback record accumulation buffer
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{ls: newLineScanner(r)}
}

// next returns the next record's fields, valid until the following
// call, or io.EOF at a clean end of stream. Like encoding/csv, entirely
// empty lines are skipped and records are not required to have the
// interchange column count — callers check.
func (rr *recordReader) next() ([][]byte, error) {
	for {
		line, err := rr.ls.next()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue // blank line, as encoding/csv skips them
		}
		if bytes.IndexByte(line, '"') < 0 {
			return rr.split(line), nil
		}
		return rr.quoted(line)
	}
}

// split breaks an unquoted line on commas in place. At most
// numFields+1 fields are retained — enough for callers to detect a
// column-count mismatch — but the true count is reflected in the
// returned slice length being capped there.
func (rr *recordReader) split(line []byte) [][]byte {
	n := 0
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ',' {
			if n < len(rr.fields) {
				rr.fields[n] = line[start:i]
				n++
			} else {
				// Over the cap: the record cannot be valid; stop splitting.
				break
			}
			start = i + 1
		}
	}
	return rr.fields[:n]
}

// quoted parses a record whose first line contains a quote character
// with encoding/csv semantics. The record's line span is found first by
// an incremental quote-state scan — each pulled line is examined once —
// and the accumulated record is then parsed exactly once, keeping
// multiline quoted input linear (a per-line reparse loop here would be
// quadratic, a denial-of-service lever on the daemon's upload and
// ingest endpoints).
func (rr *recordReader) quoted(first []byte) ([][]byte, error) {
	rr.rec = append(rr.rec[:0], first...)
	state := quoteScan(qsStart, first)
	for state == qsInQuote {
		line, lerr := rr.ls.next()
		if lerr == io.EOF {
			break // the quote never closes: let csv surface its error
		}
		if lerr != nil {
			return nil, lerr // a real I/O failure, not a syntax problem
		}
		rr.rec = append(rr.rec, '\n')
		rr.rec = append(rr.rec, line...)
		state = quoteScan(qsInQuote, line)
	}
	cr := csv.NewReader(bytes.NewReader(rr.rec))
	cr.FieldsPerRecord = -1
	record, err := cr.Read()
	if err != nil {
		return nil, err
	}
	n := len(record)
	if n > len(rr.fields) {
		n = len(rr.fields)
	}
	for i := 0; i < n; i++ {
		rr.fields[i] = []byte(record[i])
	}
	return rr.fields[:n], nil
}

// qstate tracks where a CSV record scan stands relative to quoting.
type qstate int

const (
	qsStart     qstate = iota // at a field boundary
	qsUnquoted                // inside an unquoted field
	qsInQuote                 // inside a quoted field (spans lines)
	qsPostQuote               // just after a closing quote
	qsBad                     // malformed; csv.Read will report it
)

// quoteScan advances the quote state across one line. Only qsInQuote
// continues a record onto the next line; every other terminal state
// means the record (or its error) is fully buffered.
func quoteScan(state qstate, line []byte) qstate {
	for _, c := range line {
		switch state {
		case qsStart:
			switch c {
			case '"':
				state = qsInQuote
			case ',':
				// next field, stay at boundary
			default:
				state = qsUnquoted
			}
		case qsUnquoted:
			switch c {
			case ',':
				state = qsStart
			case '"':
				return qsBad // bare quote in non-quoted field
			}
		case qsInQuote:
			if c == '"' {
				state = qsPostQuote
			}
		case qsPostQuote:
			switch c {
			case '"':
				state = qsInQuote // escaped ""
			case ',':
				state = qsStart
			default:
				return qsBad // extraneous data after closing quote
			}
		}
	}
	return state
}

// parseSessionFields decodes one record's fields into a Session. It is
// the byte-slice twin of the old strconv-based parseSession: strictly
// decimal digits per column (no signs, no spaces), which is exactly
// what WriteCSV emits.
func parseSessionFields(fields [][]byte) (Session, error) {
	var s Session
	if len(fields) > numFields {
		// Both record lanes retain at most numFields+1 fields, so the
		// exact surplus count is unknown here.
		return s, fmt.Errorf("trace: record has more than %d columns", numFields)
	}
	if len(fields) != numFields {
		return s, fmt.Errorf("trace: record has %d columns, want %d", len(fields), numFields)
	}
	user, err := parseUintField(fields[0], maxUint32, "user")
	if err != nil {
		return s, err
	}
	content, err := parseUintField(fields[1], maxUint32, "content")
	if err != nil {
		return s, err
	}
	isp, err := parseUintField(fields[2], maxUint8, "isp")
	if err != nil {
		return s, err
	}
	exchange, err := parseUintField(fields[3], maxUint16, "exchange")
	if err != nil {
		return s, err
	}
	start, err := parseUintField(fields[4], maxInt64, "start")
	if err != nil {
		return s, err
	}
	duration, err := parseUintField(fields[5], maxInt32, "duration")
	if err != nil {
		return s, err
	}
	bitrate, err := parseUintField(fields[6], maxInt32, "bitrate")
	if err != nil {
		return s, err
	}
	s.UserID = uint32(user)
	s.ContentID = uint32(content)
	s.ISP = uint8(isp)
	s.Exchange = uint16(exchange)
	s.StartSec = int64(start)
	s.DurationSec = int32(duration)
	s.Bitrate = BitrateClass(bitrate)
	return s, nil
}

// Per-column value ceilings, mirroring the bit widths the old
// strconv.Parse{Uint,Int} calls enforced.
const (
	maxUint8  = 1<<8 - 1
	maxUint16 = 1<<16 - 1
	maxUint32 = 1<<32 - 1
	maxInt32  = 1<<31 - 1
	maxInt64  = 1<<63 - 1
)

// parseUintField is the inlined hot-path integer parser: decimal digits
// only, bounded by max. Error construction is kept out of line so the
// digit loop stays allocation-free.
func parseUintField(b []byte, max uint64, col string) (uint64, error) {
	// Every column ceiling fits in int64, so more than 19 digits always
	// overflows — and 19 digits cannot overflow uint64 mid-loop.
	if len(b) == 0 || len(b) > 19 {
		return 0, fieldError(col, b)
	}
	var v uint64
	for _, c := range b {
		d := uint64(c) - '0'
		if d > 9 {
			return 0, fieldError(col, b)
		}
		v = v*10 + d
	}
	if v > max {
		return 0, fieldError(col, b)
	}
	return v, nil
}

func fieldError(col string, b []byte) error {
	return fmt.Errorf("trace: %s column: invalid value %q", col, b)
}
