// Package strictjson decodes the repo's JSON input documents (fault
// scenarios, admission-controller configurations) strictly: unknown fields
// and trailing data are errors, and every error is anchored to the line and
// column of the input it concerns.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// Decode decodes the single JSON object in data into v. Fields absent from
// data keep v's values. A malformed document, a type mismatch or an unknown
// field fails as "<prefix>: line L, column C: <cause>", and data after the
// object as "<prefix>: line L, column C: trailing data after <object>
// object".
func Decode(data []byte, v any, prefix, object string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		line, col := lineCol(data, errorOffset(data, dec, err))
		return fmt.Errorf("%s: line %d, column %d: %w", prefix, line, col, err)
	}
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return fmt.Errorf("%s: line %d, column %d: trailing data after %s object", prefix, line, col, object)
	}
	return nil
}

// Load reads the file at path and parses it with parse; parse errors are
// prefixed with the path.
func Load[T any](path string, parse func([]byte) (T, error)) (T, error) {
	var zero T
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, err
	}
	v, err := parse(data)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// errorOffset is the byte offset a decode error occurred at. Syntax and
// type errors carry their own offset; unknown-field errors name the field,
// which is located in the input; for anything else the decoder's current
// input offset is the best available anchor.
func errorOffset(data []byte, dec *json.Decoder, err error) int64 {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		return syn.Offset
	case errors.As(err, &typ):
		return typ.Offset
	}
	if off, ok := unknownFieldOffset(data, err); ok {
		return off
	}
	return dec.InputOffset()
}

// unknownFieldOffset extracts the field name from a DisallowUnknownFields
// error ('json: unknown field "start"') and finds its key in the input.
// The stdlib does not expose an offset for this error class, so a textual
// search is the only anchor available; it is exact when the field name
// appears once and a close approximation otherwise.
func unknownFieldOffset(data []byte, err error) (int64, bool) {
	const prefix = `json: unknown field "`
	msg := err.Error()
	i := strings.Index(msg, prefix)
	if i < 0 {
		return 0, false
	}
	name := msg[i+len(prefix):]
	if j := strings.IndexByte(name, '"'); j >= 0 {
		name = name[:j]
	}
	if name == "" {
		return 0, false
	}
	if k := bytes.Index(data, []byte(`"`+name+`"`)); k >= 0 {
		return int64(k), true
	}
	return 0, false
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, off int64) (line, col int) {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}
