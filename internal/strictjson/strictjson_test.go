package strictjson

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type doc struct {
	A int    `json:"a"`
	B string `json:"b"`
}

func TestDecodeAnchorsEveryErrorClass(t *testing.T) {
	cases := map[string]struct{ in, want string }{
		"syntax":        {"{\n  \"a\": 1,\n  oops\n}", "doc: line 3, column 4: invalid character"},
		"type":          {"{\n  \"a\": \"x\"\n}", "doc: line 2, column 11: json: cannot unmarshal string"},
		"unknown field": {"{\n  \"a\": 1,\n  \"c\": 2\n}", `doc: line 3, column 3: json: unknown field "c"`},
		"trailing data": {`{"a": 1} {"a": 2}`, "doc: line 1, column 10: trailing data after thing object"},
		"truncated":     {"{\n", "doc: line 1, column 1: unexpected EOF"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var d doc
			err := Decode([]byte(tc.in), &d, "doc", "thing")
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error %v, want prefix %q", err, tc.want)
			}
		})
	}
}

func TestDecodeKeepsAbsentFields(t *testing.T) {
	d := doc{A: 7, B: "kept"}
	if err := Decode([]byte(`{"a": 3}`), &d, "doc", "thing"); err != nil {
		t.Fatal(err)
	}
	if d != (doc{A: 3, B: "kept"}) {
		t.Fatalf("decoded %+v", d)
	}
}

func TestLoadPrefixesParseErrorsWithPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	if err := os.WriteFile(path, []byte(`{"z": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(data []byte) (doc, error) {
		var d doc
		return d, Decode(data, &d, "doc", "thing")
	}
	if _, err := Load(path, parse); err == nil || !strings.HasPrefix(err.Error(), path+": doc: line 1") {
		t.Fatalf("error %v, want it prefixed with the path", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json"), parse); err == nil {
		t.Fatal("missing file accepted")
	}
}
