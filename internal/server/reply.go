package server

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	restore "repro"
	"repro/internal/obs"
)

// The /v1/query reply is written without building a QueryResponse: the rows
// object, by far the largest part, goes from the stored partition bytes to
// JSON bytes in one pass. The bytes on the wire are exactly what
// json.NewEncoder(w).Encode(QueryResponse{...}) would write, so clients keep
// decoding QueryResponse (TestQueryReplyMatchesEncoder pins the identity).

var tab = []byte{'\t'}

// readRows renders every output of res as the reply's "rows" object:
// outputs in sorted key order, as encoding/json orders map keys, each an
// array of its ReadOutputTSV lines. The lines come straight from
// System.ReadOutputLines' sorted arena, so the object is built once per
// flight and shared by every member's reply. nil when res has no outputs:
// omitempty drops an empty map.
func readRows(sys *restore.System, res *restore.Result) ([]byte, error) {
	if len(res.Outputs) == 0 {
		return nil, nil
	}
	out := []byte{'{'}
	for i, p := range slices.Sorted(maps.Keys(res.Outputs)) {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(appendJSONString(out, p), ':', '[')
		err := sys.ReadOutputLines(res, p, func(lines [][]byte) error {
			// A line costs its bytes, two quotes, a comma and a backslash
			// per tab; sizing for that up front makes one allocation unless
			// a row holds some rarer escape.
			size := 0
			for _, l := range lines {
				size += len(l) + 3 + bytes.Count(l, tab)
			}
			out = slices.Grow(out, size+2)
			for j, l := range lines {
				if j > 0 {
					out = append(out, ',')
				}
				out = appendJSONString(out, l)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ']')
	}
	return append(out, '}'), nil
}

// writeQueryReply writes a successful /v1/query reply: the bytes
// writeJSON(w, http.StatusOK, QueryResponse{deduped, res, rows, trace})
// writes, with rows already encoded by readRows (nil omits the member).
func writeQueryReply(w http.ResponseWriter, deduped bool, res *restore.Result, rows []byte, trace *obs.TraceSnapshot) {
	result, err := json.Marshal(res)
	if err != nil {
		writeError(w, err)
		return
	}
	head := append([]byte(`{"deduped":`), strconv.FormatBool(deduped)...)
	head = append(append(head, `,"result":`...), result...)
	if rows != nil {
		head = append(head, `,"rows":`...)
	}
	var tail []byte
	if trace != nil {
		t, err := json.Marshal(trace)
		if err != nil {
			writeError(w, err)
			return
		}
		tail = append([]byte(`,"trace":`), t...)
	}
	tail = append(tail, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, b := range [][]byte{head, rows, tail} {
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (json.Marshal, json.Encoder's default):
// `"` and `\` backslash-escaped; \b, \f, \n, \r and \t by name; other
// control bytes and <, > and & as \u00XX; each invalid UTF-8 byte as
// \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
