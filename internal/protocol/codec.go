package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The connection codec: frames are JSON values, and every one this
// package writes is the exact bytes of json.Marshal plus a newline.
// Writing appends a Message's fields by hand (appendMessage). Reading
// finds each frame's end with a resumable scanner that checks the JSON
// as bytes arrive, then decodes the frame by hand when it has the form
// appendMessage writes (decodeCanonical), and with json.Unmarshal when
// it does not. encoding/json thus stays the one definition of what a
// frame means: case-folded and escaped keys, escaped strings, unknown
// and repeated keys, and null values all decode as it decodes them.

// codec is a connection's read and write state: the read buffer its
// frames are scanned in, and the buffer Send encodes into. A fresh
// codec grows both from nothing, so codecs are pooled and keep their
// buffers warm across connections (see Conn.release).
type codec struct {
	r io.Reader
	// in holds what has been read from r; in[off:] is not consumed yet.
	in  []byte
	off int
	// scan is the scanner of the frame being read. It resumes where it
	// stopped when a read brings more bytes, so a frame split across
	// many reads is scanned once.
	scan scanner
	// err is a read, syntax or frame-cap error. Every later read
	// returns it, as a json.Decoder's does: the stream has lost its
	// place.
	err error
	// out is Send's encode buffer.
	out []byte
}

// codecs holds the codecs of connections that ended clean.
var codecs = sync.Pool{New: func() any { return new(codec) }}

// bindCodec takes a codec from the pool and binds it to r.
func bindCodec(r io.Reader) *codec {
	c := codecs.Get().(*codec)
	c.r = r
	return c
}

// minRead is the least free space a read is given; a buffer with less
// grows first.
const minRead = 512

// recv reads and decodes the next frame. A frame is one JSON value and
// the whitespace before it. An object or array ends at its closing
// bracket; a top-level scalar, which no Message decodes from but null,
// ends at the byte after it or at the end of the stream. A frame that
// is not valid JSON fails at its first invalid byte, and one longer
// than maxFrameBytes fails once that many bytes are read. Each verdict
// is the one json.Decoder gives the same stream.
func (cd *codec) recv() (Message, error) {
	if cd.err != nil {
		return Message{}, cd.err
	}
	cd.scan.reset()
	end := cd.off // the scanner has read in[off:end]
	var rerr error
	for {
		n, done, err := cd.scan.step(cd.in[end:])
		end += n
		switch {
		case err != nil:
			cd.err = err
		case done || rerr == nil:
		case rerr == io.EOF && cd.scan.endsAtEOF():
			done = true
		case rerr == io.EOF && !cd.scan.blank():
			cd.err = io.ErrUnexpectedEOF
		default:
			cd.err = rerr
		}
		if cd.err == nil && (done && end-cd.off > maxFrameBytes || !done && len(cd.in)-cd.off > maxFrameBytes) {
			cd.err = ErrFrameTooLarge
		}
		if cd.err != nil {
			return Message{}, cd.err
		}
		if done {
			frame := cd.in[cd.off:end]
			cd.off = end
			return decodeFrame(frame)
		}
		var shift int
		shift, rerr = cd.fill()
		end -= shift
	}
}

// fill reads more of the stream. It first moves the unconsumed bytes to
// the front of in, returning how far they moved, and grows in when
// fewer than minRead bytes are free. It reads no further than the byte
// that puts the frame over maxFrameBytes.
func (cd *codec) fill() (int, error) {
	shift := cd.off
	if shift > 0 {
		cd.in = cd.in[:copy(cd.in, cd.in[shift:])]
		cd.off = 0
	}
	if cap(cd.in)-len(cd.in) < minRead {
		grown := make([]byte, len(cd.in), min(2*cap(cd.in)+minRead, maxFrameBytes+1))
		copy(grown, cd.in)
		cd.in = grown
	}
	free := cd.in[len(cd.in):cap(cd.in)]
	if room := maxFrameBytes + 1 - len(cd.in); len(free) > room {
		free = free[:room]
	}
	n, err := cd.r.Read(free)
	cd.in = cd.in[:len(cd.in)+n]
	return shift, err
}

// drained reports whether nothing but JSON whitespace is left unread.
func (cd *codec) drained() bool { return skipSpace(cd.in, cd.off) == len(cd.in) }

// scanState is where a scanner stands in a JSON value. The states are
// encoding/json's scanner states.
type scanState uint8

const (
	scanBeginValue        scanState = iota // before a value
	scanBeginValueOrEmpty                  // after '['
	scanBeginKeyOrEmpty                    // after '{'
	scanBeginKey                           // after ',' in an object
	scanInString
	scanInStringEsc  // after '\'
	scanInStringEscU // in a \u escape, with hex digits to go
	scanNeg          // after a number's '-'
	scanZero         // after a number's leading 0
	scanInt          // in a number's nonzero integer part
	scanDot          // after a number's '.'
	scanFrac         // in a number's fraction digits
	scanExp          // after a number's 'e' or 'E'
	scanExpSign      // after the exponent's sign
	scanExpDigits    // in the exponent's digits
	scanLiteral      // in true, false or null
	scanEndValue     // after a value
)

// A scanner's open containers, innermost last.
const (
	inObjectKey   byte = iota // reading an object key
	inObjectValue             // reading an object value
	inArray                   // reading an array element
)

// maxNestingDepth is encoding/json's limit on nested containers.
const maxNestingDepth = 10000

// scanner checks one JSON value byte by byte and finds where it ends,
// resuming across the reads a value arrives in.
type scanner struct {
	state scanState
	stack []byte
	// hex counts a \u escape's hex digits still to come.
	hex int
	// lit is the literal being read and litPos its next byte.
	lit    string
	litPos int
}

func (s *scanner) reset() {
	s.state = scanBeginValue
	s.stack = s.stack[:0]
}

// blank reports whether the scanner has read only whitespace.
func (s *scanner) blank() bool { return s.state == scanBeginValue && len(s.stack) == 0 }

// endsAtEOF reports whether the value is complete if the stream ends
// here: a top-level number or a finished top-level string or literal.
func (s *scanner) endsAtEOF() bool {
	if len(s.stack) > 0 {
		return false
	}
	switch s.state {
	case scanZero, scanInt, scanFrac, scanExpDigits, scanEndValue:
		return true
	}
	return false
}

// step advances the scanner over p, the value's next bytes. It returns
// how many of them belong to the value and whether the value ended: a
// closing bracket at depth zero ends it and is counted; a top-level
// scalar ends before the first byte that cannot extend it. An invalid
// byte is an error, reported before any later byte is read.
func (s *scanner) step(p []byte) (int, bool, error) {
	i := 0
	for i < len(p) {
		c := p[i]
		switch s.state {
		case scanBeginValue:
			if isSpace(c) {
				break
			}
			if err := s.beginValue(c); err != nil {
				return i, false, err
			}
		case scanBeginValueOrEmpty:
			if isSpace(c) {
				break
			}
			if c == ']' {
				s.state = scanEndValue
				continue
			}
			if err := s.beginValue(c); err != nil {
				return i, false, err
			}
		case scanBeginKeyOrEmpty:
			if isSpace(c) {
				break
			}
			if c == '}' {
				s.stack[len(s.stack)-1] = inObjectValue
				s.state = scanEndValue
				continue
			}
			s.state = scanBeginKey
			continue
		case scanBeginKey:
			if isSpace(c) {
				break
			}
			if c != '"' {
				return i, false, syntaxError(c, "looking for beginning of object key string")
			}
			s.state = scanInString
		case scanInString:
			for c != '"' && c != '\\' && c >= 0x20 {
				if i++; i == len(p) {
					return i, false, nil
				}
				c = p[i]
			}
			switch {
			case c == '"':
				s.state = scanEndValue
			case c == '\\':
				s.state = scanInStringEsc
			default:
				return i, false, syntaxError(c, "in string literal")
			}
		case scanInStringEsc:
			switch c {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				s.state = scanInString
			case 'u':
				s.state, s.hex = scanInStringEscU, 4
			default:
				return i, false, syntaxError(c, "in string escape code")
			}
		case scanInStringEscU:
			if !isHex(c) {
				return i, false, syntaxError(c, "in \\u hexadecimal character escape")
			}
			if s.hex--; s.hex == 0 {
				s.state = scanInString
			}
		case scanNeg:
			switch {
			case c == '0':
				s.state = scanZero
			case '1' <= c && c <= '9':
				s.state = scanInt
			default:
				return i, false, syntaxError(c, "in numeric literal")
			}
		case scanInt:
			if isDigit(c) {
				break
			}
			s.state = scanZero
			continue
		case scanZero:
			switch c {
			case '.':
				s.state = scanDot
			case 'e', 'E':
				s.state = scanExp
			default:
				s.state = scanEndValue
				continue
			}
		case scanDot:
			if !isDigit(c) {
				return i, false, syntaxError(c, "after decimal point in numeric literal")
			}
			s.state = scanFrac
		case scanFrac:
			switch {
			case isDigit(c):
			case c == 'e' || c == 'E':
				s.state = scanExp
			default:
				s.state = scanEndValue
				continue
			}
		case scanExp:
			switch {
			case c == '+' || c == '-':
				s.state = scanExpSign
			case isDigit(c):
				s.state = scanExpDigits
			default:
				return i, false, syntaxError(c, "in exponent of numeric literal")
			}
		case scanExpSign:
			if !isDigit(c) {
				return i, false, syntaxError(c, "in exponent of numeric literal")
			}
			s.state = scanExpDigits
		case scanExpDigits:
			if isDigit(c) {
				break
			}
			s.state = scanEndValue
			continue
		case scanLiteral:
			if c != s.lit[s.litPos] {
				return i, false, syntaxError(c, "in literal "+s.lit+" (expecting "+quoteChar(s.lit[s.litPos])+")")
			}
			if s.litPos++; s.litPos == len(s.lit) {
				s.state = scanEndValue
			}
		case scanEndValue:
			n := len(s.stack)
			if n == 0 {
				return i, true, nil
			}
			if isSpace(c) {
				break
			}
			switch top := s.stack[n-1]; {
			case top == inObjectKey && c == ':':
				s.stack[n-1] = inObjectValue
				s.state = scanBeginValue
			case top == inObjectKey:
				return i, false, syntaxError(c, "after object key")
			case top == inObjectValue && c == ',':
				s.stack[n-1] = inObjectKey
				s.state = scanBeginKey
			case top == inArray && c == ',':
				s.state = scanBeginValue
			case top == inObjectValue && c == '}', top == inArray && c == ']':
				s.stack = s.stack[:n-1]
				if n == 1 {
					return i + 1, true, nil
				}
			case top == inObjectValue:
				return i, false, syntaxError(c, "after object key:value pair")
			default:
				return i, false, syntaxError(c, "after array element")
			}
		}
		i++
	}
	return i, false, nil
}

// beginValue starts the value whose first byte is c.
func (s *scanner) beginValue(c byte) error {
	switch {
	case c == '{' || c == '[':
		if len(s.stack) == maxNestingDepth {
			return syntaxError(c, "exceeded max depth")
		}
		if c == '{' {
			s.stack = append(s.stack, inObjectKey)
			s.state = scanBeginKeyOrEmpty
		} else {
			s.stack = append(s.stack, inArray)
			s.state = scanBeginValueOrEmpty
		}
	case c == '"':
		s.state = scanInString
	case c == '-':
		s.state = scanNeg
	case c == '0':
		s.state = scanZero
	case '1' <= c && c <= '9':
		s.state = scanInt
	case c == 't':
		s.state, s.lit, s.litPos = scanLiteral, "true", 1
	case c == 'f':
		s.state, s.lit, s.litPos = scanLiteral, "false", 1
	case c == 'n':
		s.state, s.lit, s.litPos = scanLiteral, "null", 1
	default:
		return syntaxError(c, "looking for beginning of value")
	}
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isHex(c byte) bool   { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// syntaxError is the error for the invalid byte c, worded as
// encoding/json words it.
func syntaxError(c byte, context string) error {
	return errors.New("invalid character " + quoteChar(c) + " " + context)
}

// quoteChar formats c as a quoted character literal.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	q := strconv.Quote(string(rune(c)))
	return "'" + q[1:len(q)-1] + "'"
}

// skipSpace returns the index of the first non-whitespace byte of
// data at or after i, by JSON's definition of whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// decodeFrame decodes one frame, a JSON value the scanner has checked.
func decodeFrame(frame []byte) (Message, error) {
	var m Message
	if decodeCanonical(frame, &m) {
		return m, nil
	}
	return decodeJSON(frame)
}

// jsonMessage is Message with none of its methods, so json.Unmarshal
// decodes into it by reflection alone and never calls back into the
// codec.
type jsonMessage Message

// decodeJSON decodes a frame that is not canonical with
// encoding/json, whose verdict and value are the reference for every
// frame.
func decodeJSON(frame []byte) (Message, error) {
	var m jsonMessage
	if err := json.Unmarshal(frame, &m); err != nil {
		return Message{}, err
	}
	return Message(m), nil
}

// decodeCanonical decodes frame into m by hand if the frame is
// canonical, and reports whether it was. A canonical frame is an
// object whose keys are Message's JSON names exactly, without escapes,
// and whose values have their fields' types: a string with no escape
// and valid UTF-8, an integer within its field's range, a float within
// float64's, a bool, a bundle array of integers, or a reports array of
// objects keyed "task" and "label" likewise. No value is null, and the
// bundle and reports keys come at most once: json.Unmarshal decodes a
// repeated array over the earlier one in place. A repeated scalar key
// needs no such care, as the last one wins in both decoders. Every
// frame appendMessage writes is canonical, and on a canonical frame
// json.Unmarshal gives the same Message. frame must be valid JSON.
func decodeCanonical(frame []byte, m *Message) bool {
	i := skipSpace(frame, 0)
	if at(frame, i) != '{' {
		return false
	}
	i = skipSpace(frame, i+1)
	if at(frame, i) == '}' {
		return skipSpace(frame, i+1) == len(frame)
	}
	for {
		key, j, ok := plainString(frame, i)
		if !ok {
			return false
		}
		i = skipSpace(frame, j)
		if at(frame, i) != ':' {
			return false
		}
		i = skipSpace(frame, i+1)
		var s []byte
		switch string(key) {
		case "type":
			s, i, ok = plainString(frame, i)
			m.Type = internType(s)
		case "worker_id":
			s, i, ok = plainString(frame, i)
			m.WorkerID = string(s)
		case "num_tasks":
			var v int64
			v, i, ok = intValue(frame, i, math.MinInt, math.MaxInt)
			m.NumTasks = int(v)
		case "epsilon":
			m.Epsilon, i, ok = floatValue(frame, i)
		case "cmin":
			m.CMin, i, ok = floatValue(frame, i)
		case "cmax":
			m.CMax, i, ok = floatValue(frame, i)
		case "bid_window_millis":
			m.BidWindowMillis, i, ok = intValue(frame, i, math.MinInt64, math.MaxInt64)
		case "bundle":
			if m.Bundle != nil {
				return false
			}
			m.Bundle, i, ok = bundleValue(frame, i)
		case "price":
			m.Price, i, ok = floatValue(frame, i)
		case "won":
			m.Won, i, ok = boolValue(frame, i)
		case "clearing_price":
			m.ClearingPrice, i, ok = floatValue(frame, i)
		case "amount":
			m.Amount, i, ok = floatValue(frame, i)
		case "reports":
			if m.Reports != nil {
				return false
			}
			m.Reports, i, ok = reportsValue(frame, i)
		case "err":
			s, i, ok = plainString(frame, i)
			m.Err = string(s)
		default:
			return false
		}
		if !ok {
			return false
		}
		i = skipSpace(frame, i)
		switch at(frame, i) {
		case ',':
			i = skipSpace(frame, i+1)
		case '}':
			return skipSpace(frame, i+1) == len(frame)
		default:
			return false
		}
	}
}

// at is data[i], or 0 past its end.
func at(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// plainString returns the contents of the string at data[i:] and the
// index past it, if it has no escape and is valid UTF-8: json.Unmarshal
// decodes such a string to its bytes as they stand.
func plainString(data []byte, i int) ([]byte, int, bool) {
	if at(data, i) != '"' {
		return nil, i, false
	}
	n := bytes.IndexByte(data[i+1:], '"')
	if n < 0 {
		return nil, i, false
	}
	s := data[i+1 : i+1+n]
	ascii := true
	for _, c := range s {
		if c == '\\' || c < 0x20 {
			return nil, i, false
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	return s, i + n + 2, ascii || utf8.Valid(s)
}

// internType returns the Type named s without allocating for the
// protocol's own types.
func internType(s []byte) Type {
	for _, t := range [...]Type{TypeHello, TypeAnnounce, TypeBid, TypeOutcome, TypeLabels, TypePayment, TypeDone, TypeError} {
		if string(t) == string(s) {
			return t
		}
	}
	return Type(s)
}

// number returns the number token at data[i:] and the index past it.
func number(data []byte, i int) ([]byte, int) {
	j := i
	for j < len(data) && (isDigit(data[j]) || data[j] == '-' || data[j] == '+' || data[j] == '.' || data[j] == 'e' || data[j] == 'E') {
		j++
	}
	return data[i:j], j
}

// intValue decodes the integer at data[i:] if it lies in [lo, hi] and
// has no fraction or exponent, as json.Unmarshal requires of an integer
// field.
func intValue(data []byte, i int, lo, hi int64) (int64, int, bool) {
	tok, end := number(data, i)
	neg := len(tok) > 0 && tok[0] == '-'
	digits := tok
	if neg {
		digits = tok[1:]
	}
	if len(digits) == 0 || len(digits) > 19 {
		return 0, i, false
	}
	var u uint64
	for _, c := range digits {
		if !isDigit(c) {
			return 0, i, false
		}
		u = u*10 + uint64(c-'0') // nineteen digits cannot overflow
	}
	var v int64
	switch {
	case !neg && u <= math.MaxInt64:
		v = int64(u)
	case neg && u <= 1<<63:
		v = -int64(u) // 1<<63 wraps to MinInt64, which negation keeps
	default:
		return 0, i, false
	}
	return v, end, lo <= v && v <= hi
}

// floatValue decodes the number at data[i:] as json.Unmarshal decodes
// a float64 field.
func floatValue(data []byte, i int) (float64, int, bool) {
	tok, end := number(data, i)
	if len(tok) == 0 {
		return 0, i, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, end, err == nil
}

// boolValue decodes true or false at data[i:].
func boolValue(data []byte, i int) (bool, int, bool) {
	switch {
	case bytes.HasPrefix(data[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(data[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// arrayBody returns the bytes between the '[' at data[i] and the first
// ']' after it, and the index of that ']'. In a canonical array, which
// nests no array and holds no string, that ']' closes it.
func arrayBody(data []byte, i int) ([]byte, int, bool) {
	if at(data, i) != '[' {
		return nil, i, false
	}
	n := bytes.IndexByte(data[i:], ']')
	if n < 0 {
		return nil, i, false
	}
	return data[i+1 : i+n], i + n, true
}

// arrayNext steps past the separator after element k of an n-element
// array, at data[i:]: a comma, or after the last element the closing
// bracket.
func arrayNext(data []byte, i, k, n int) (int, bool) {
	i = skipSpace(data, i)
	want := byte(',')
	if k == n-1 {
		want = ']'
	}
	return i + 1, at(data, i) == want
}

// bundleValue decodes the array of integers at data[i:] into one slice
// of its exact length.
func bundleValue(data []byte, i int) ([]int, int, bool) {
	body, end, ok := arrayBody(data, i)
	if !ok {
		return nil, i, false
	}
	if skipSpace(body, 0) == len(body) {
		return []int{}, end + 1, true
	}
	// Commas only separate elements in an array of integers; an array
	// with other commas fails at an element below.
	tasks := make([]int, bytes.Count(body, []byte{','})+1)
	i++
	for k := range tasks {
		v, j, ok := intValue(data, skipSpace(data, i), math.MinInt, math.MaxInt)
		if !ok {
			return nil, i, false
		}
		tasks[k] = int(v)
		if i, ok = arrayNext(data, j, k, len(tasks)); !ok {
			return nil, i, false
		}
	}
	return tasks, i, true
}

// reportsValue decodes the array of label reports at data[i:] into one
// slice of its exact length.
func reportsValue(data []byte, i int) ([]LabelReport, int, bool) {
	body, end, ok := arrayBody(data, i)
	if !ok {
		return nil, i, false
	}
	if skipSpace(body, 0) == len(body) {
		return []LabelReport{}, end + 1, true
	}
	n := bytes.Count(body, []byte{'{'})
	if n == 0 {
		return nil, i, false
	}
	reports := make([]LabelReport, n)
	i++
	for k := range reports {
		j, ok := reportValue(data, skipSpace(data, i), &reports[k])
		if !ok {
			return nil, i, false
		}
		if i, ok = arrayNext(data, j, k, n); !ok {
			return nil, i, false
		}
	}
	return reports, i, true
}

// reportValue decodes the object at data[i:] into r. Its keys must be
// "task" and "label", with integer values in range.
func reportValue(data []byte, i int, r *LabelReport) (int, bool) {
	if at(data, i) != '{' {
		return i, false
	}
	i = skipSpace(data, i+1)
	if at(data, i) == '}' {
		return i + 1, true
	}
	for {
		key, j, ok := plainString(data, i)
		if !ok {
			return i, false
		}
		i = skipSpace(data, j)
		if at(data, i) != ':' {
			return i, false
		}
		i = skipSpace(data, i+1)
		var v int64
		switch string(key) {
		case "task":
			v, i, ok = intValue(data, i, math.MinInt, math.MaxInt)
			r.Task = int(v)
		case "label":
			v, i, ok = intValue(data, i, math.MinInt8, math.MaxInt8)
			r.Label = int8(v)
		default:
			ok = false
		}
		if !ok {
			return i, false
		}
		i = skipSpace(data, i)
		switch at(data, i) {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// appendMessage appends m's JSON encoding to b: the bytes json.Marshal
// returns for m, fields in declaration order, the omitempty ones left
// out when zero. Like json.Marshal it refuses a NaN or infinite float,
// and its error names the field but not the value, which may be a bid.
func appendMessage(b []byte, m *Message) ([]byte, error) {
	var bad string // the first non-finite float's key
	float := func(key string, f float64) {
		switch {
		case f == 0:
		case math.IsNaN(f) || math.IsInf(f, 0):
			if bad == "" {
				bad = key
			}
		default:
			b = append(b, `,"`...)
			b = append(b, key...)
			b = append(b, `":`...)
			b = appendFloat(b, f)
		}
	}
	b = append(b, `{"type":`...)
	b = appendString(b, string(m.Type))
	if m.WorkerID != "" {
		b = append(b, `,"worker_id":`...)
		b = appendString(b, m.WorkerID)
	}
	if m.NumTasks != 0 {
		b = append(b, `,"num_tasks":`...)
		b = strconv.AppendInt(b, int64(m.NumTasks), 10)
	}
	float("epsilon", m.Epsilon)
	float("cmin", m.CMin)
	float("cmax", m.CMax)
	if m.BidWindowMillis != 0 {
		b = append(b, `,"bid_window_millis":`...)
		b = strconv.AppendInt(b, m.BidWindowMillis, 10)
	}
	if len(m.Bundle) > 0 {
		b = append(b, `,"bundle":[`...)
		for k, task := range m.Bundle {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(task), 10)
		}
		b = append(b, ']')
	}
	float("price", m.Price)
	if m.Won {
		b = append(b, `,"won":true`...)
	}
	float("clearing_price", m.ClearingPrice)
	float("amount", m.Amount)
	if len(m.Reports) > 0 {
		b = append(b, `,"reports":[`...)
		for k, r := range m.Reports {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"task":`...)
			b = strconv.AppendInt(b, int64(r.Task), 10)
			b = append(b, `,"label":`...)
			b = strconv.AppendInt(b, int64(r.Label), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if m.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, m.Err)
	}
	if bad != "" {
		return nil, errors.New(bad + " is not a finite number")
	}
	return append(b, '}'), nil
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest representation that reads back as f, in exponent form below
// 1e-6 and from 1e21 on, with an exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string. A string that holds any
// byte encoding/json escapes (a control byte, '"', '\\', '<', '>',
// '&') or any non-ASCII byte is encoded by json.Marshal, so the
// escaping rules stay encoding/json's.
func appendString(b []byte, s string) []byte {
	for k := 0; k < len(s); k++ {
		if c := s[k]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
