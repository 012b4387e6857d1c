package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file decodes the two request bodies that carry particle data, POST
// /v1/plans and POST /v1/solve, in one pass over the bytes. The coordinate
// and charge arrays, nearly all of a body, are parsed straight into exactly
// sized []float64 by strconv.ParseFloat(tok, 64), the call encoding/json
// makes, so every value keeps its bits. Every other value (the plan key,
// params, kernel and unknown keys) is cold: its extent is found without
// recursion and handed to encoding/json, which keeps its rules for
// strings, escapes, integer fields and repeated keys. Keys match fields as
// encoding/json matches them: exactly, else under Unicode case folding.
//
// A decoded request equals what json.Unmarshal gives for the body, and a
// body json.Unmarshal rejects is rejected, anything but whitespace after
// the one JSON value included. The one difference is a rejection: a null
// element of a number array, for which encoding/json stores nothing,
// leaving a zero or an earlier value. FuzzDecodeRequest checks this
// against encoding/json.

// maxDepth is encoding/json's nesting limit. A body nested deeper fails
// json.Unmarshal, so it is rejected here too.
const maxDepth = 10000

// requestFields are the members of a request body: a PlanRequest has the
// first three (GeometrySpec's), a SolveRequest all six.
var requestFields = []string{"targets", "sources", "params", "plan", "kernel", "charges"}

// pointsFields are the members of a PointsSpec.
var pointsFields = []string{"x", "y", "z"}

var (
	errEnd  = errors.New("unexpected end of JSON input")
	errNull = errors.New("null element") // parseNumbers' report of one
)

// readBody reads the whole request body and fails once it passes limit
// bytes. The buffer grows with the bytes received, whatever length the
// request declares.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, fmt.Errorf("reading request body: %v", err)
	}
	return buf.Bytes(), nil
}

// decodePlanRequest decodes a POST /v1/plans body.
func decodePlanRequest(body []byte) (PlanRequest, error) {
	var req PlanRequest
	d := decoder{b: body}
	if err := d.top(func(key []byte) error {
		return d.geometry(&req.GeometrySpec, field(key, requestFields[:3]))
	}); err != nil {
		return PlanRequest{}, fmt.Errorf("bad JSON: %w", err)
	}
	return req, nil
}

// decodeSolveRequest decodes a POST /v1/solve body.
func decodeSolveRequest(body []byte) (SolveRequest, error) {
	var req SolveRequest
	d := decoder{b: body}
	if err := d.top(func(key []byte) error {
		switch f := field(key, requestFields); f {
		case "plan":
			return d.cold(&req.Plan, 1)
		case "kernel":
			return d.cold(&req.Kernel, 1)
		case "charges":
			return d.numbers(&req.Charges, f)
		default:
			return d.geometry(&req.GeometrySpec, f)
		}
	}); err != nil {
		return SolveRequest{}, fmt.Errorf("bad JSON: %w", err)
	}
	return req, nil
}

// field returns the name in names that key selects, matching as
// encoding/json does (exactly, else under Unicode case folding), or "".
func field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// nullElementError is a null element of a number array. encoding/json
// stores nothing for it, so it is rejected instead.
type nullElementError struct {
	field  string // e.g. "charges" or "targets.x"
	index  int
	offset int // of the null in the body
}

func (e *nullElementError) Error() string {
	return fmt.Sprintf("%s[%d] is null, not a number (offset %d)", e.field, e.index, e.offset)
}

// decoder is a cursor over one request body.
type decoder struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// null consumes a null literal at the cursor and reports whether there
// was one.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// unexpected reports the byte at the cursor as a syntax error.
func (d *decoder) unexpected(where string) error {
	if d.i >= len(d.b) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.b[d.i], d.i, where)
}

// top decodes the body as one JSON object followed by nothing but
// whitespace, calling member for each member as object does. A null body
// leaves the request zero, as json.Unmarshal does.
func (d *decoder) top(member func(key []byte) error) error {
	d.space()
	if !d.null() {
		if d.peek() != '{' {
			return d.unexpected("looking for a JSON object")
		}
		if err := d.object(member); err != nil {
			return err
		}
	}
	d.space()
	if d.i < len(d.b) {
		return d.unexpected("after top-level value")
	}
	return nil
}

// object walks the object at the cursor, calling member with each
// member's unescaped key and the cursor on its value, which member must
// consume.
func (d *decoder) object(member func(key []byte) error) error {
	d.i++ // '{'
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.i++
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// key reads the object key at the cursor and returns it unescaped. A key
// holding an escape or a non-ASCII byte is unquoted by encoding/json.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("looking for beginning of object key string")
	}
	start, plain := d.i, true
	for d.i++; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
		switch c := d.b[d.i]; {
		case c == '\\':
			plain = false
			d.i++
		case c < ' ':
			return nil, d.unexpected("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	if d.i >= len(d.b) {
		return nil, errEnd
	}
	d.i++
	raw := d.b[start:d.i]
	if plain {
		return raw[1 : len(raw)-1], nil
	}
	var key string
	if err := json.Unmarshal(raw, &key); err != nil {
		return nil, err
	}
	return []byte(key), nil
}

// geometry decodes the value of GeometrySpec's member f; any other f is
// an unknown key.
func (d *decoder) geometry(g *GeometrySpec, f string) error {
	switch f {
	case "targets":
		return d.points(&g.Targets, f)
	case "sources":
		return d.points(&g.Sources, f)
	case "params":
		return d.cold(&g.Params, 1)
	}
	return d.cold(nil, 1)
}

// points decodes a PointsSpec: null clears it, and an object is decoded
// into it, allocated on first use, so a repeated key merges as in
// encoding/json.
func (d *decoder) points(p **PointsSpec, name string) error {
	if d.null() {
		*p = nil
		return nil
	}
	if d.peek() != '{' {
		return fmt.Errorf("%s: want an object of coordinate arrays", name)
	}
	if *p == nil {
		*p = new(PointsSpec)
	}
	ps := *p
	return d.object(func(key []byte) error {
		switch axis := field(key, pointsFields); axis {
		case "x":
			return d.numbers(&ps.X, name, axis)
		case "y":
			return d.numbers(&ps.Y, name, axis)
		case "z":
			return d.numbers(&ps.Z, name, axis)
		}
		return d.cold(nil, 2)
	})
}

// numbers decodes a number array, which errors name by path joined with
// dots (charges, targets.x): null clears it, and an array is parsed into a
// new slice of exactly its length.
func (d *decoder) numbers(dst *[]float64, path ...string) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.peek() != '[' {
		return fmt.Errorf("%s: want an array of numbers", strings.Join(path, "."))
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		*dst = []float64{}
		return nil
	}
	// Numbers hold no ',' or ']', so up to the first ']' an array of n
	// numbers has n-1 commas. Any other element fails parseNumbers,
	// whatever the count.
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return errEnd
	}
	out := make([]float64, bytes.Count(d.b[d.i:d.i+end], []byte{','})+1)
	i, k, err := parseNumbers(d.b, d.i, out)
	d.i = i
	if k < 0 {
		*dst = out
		return nil
	}
	name := strings.Join(path, ".")
	switch {
	case err == errNull:
		return &nullElementError{field: name, index: k, offset: i}
	case err != nil:
		return fmt.Errorf("%s[%d]: %v", name, k, err)
	}
	return d.unexpected(fmt.Sprintf("in %s[%d]", name, k))
}

// parseNumbers parses the len(out) elements of the number array whose
// first element follows b[i] after whitespace, each checked against JSON's
// number grammar before strconv.ParseFloat reads it into out by index. It
// returns the offset just past the closing ']' and -1, or the offset where
// element k failed, k, and errNull for a null element, ParseFloat's error
// if ParseFloat failed, else nil.
//
//hot:path
func parseNumbers(b []byte, i int, out []float64) (int, int, error) {
	for k := range out {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
		start := i
		if i < len(b) && b[i] == '-' {
			i++
		}
		switch {
		case i < len(b) && b[i] == '0':
			i++
		case i < len(b) && '1' <= b[i] && b[i] <= '9':
			for i++; i < len(b) && isDigit(b[i]); i++ {
			}
		default:
			if bytes.HasPrefix(b[start:], []byte("null")) {
				return start, k, errNull
			}
			return start, k, nil
		}
		if i < len(b) && b[i] == '.' {
			if i++; i >= len(b) || !isDigit(b[i]) {
				return i, k, nil
			}
			for i++; i < len(b) && isDigit(b[i]); i++ {
			}
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			if i >= len(b) || !isDigit(b[i]) {
				return i, k, nil
			}
			for i++; i < len(b) && isDigit(b[i]); i++ {
			}
		}
		v, err := strconv.ParseFloat(string(b[start:i]), 64)
		if err != nil {
			return start, k, err
		}
		out[k] = v
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		sep := byte(',')
		if k == len(out)-1 {
			sep = ']'
		}
		if i >= len(b) || b[i] != sep {
			return i, k, nil
		}
		i++
	}
	return i, -1, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// cold decodes the value at the cursor into v with json.Unmarshal or, for
// a nil v (an unknown key), only checks that it is valid JSON. depth
// counts the containers enclosing the value.
func (d *decoder) cold(v any, depth int) error {
	end, err := d.extent(depth)
	if err != nil {
		return err
	}
	raw := d.b[d.i:end]
	if v == nil {
		if !json.Valid(raw) {
			return fmt.Errorf("invalid JSON value at offset %d", d.i)
		}
	} else if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("value at offset %d: %v", d.i, err)
	}
	d.i = end
	return nil
}

// extent returns the end of the JSON value at the cursor, found by
// matching brackets outside strings, without checking its syntax: a value
// that is not JSON then fails json.Unmarshal or json.Valid. It rejects a
// value that reaches more than maxDepth containers deep, counting the
// depth enclosing it, as encoding/json's scanner rejects the whole body.
func (d *decoder) extent(depth int) (int, error) {
	b, i, level := d.b, d.i, 0
	for i < len(b) {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return 0, errEnd
			}
		case '{', '[':
			if level++; depth+level > maxDepth {
				return 0, fmt.Errorf("exceeded max depth at offset %d", i)
			}
		case '}', ']':
			level--
		default:
			if level == 0 { // a number or a literal: up to the next delimiter
				for i < len(b) && !isSpace(b[i]) && b[i] != ',' && b[i] != '}' && b[i] != ']' {
					i++
				}
				return i, nil
			}
		}
		i++
		if level <= 0 {
			return i, nil
		}
	}
	return 0, errEnd
}
