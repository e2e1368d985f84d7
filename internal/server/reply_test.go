package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	restore "repro"
	"repro/internal/obs"
	"repro/internal/types"
)

// hostileRows are FuzzRecordsTSV's hostile seed rows (internal/types):
// nested tuples and bags, NaN/±Inf/-0/1e21 floats, and strings holding a
// tab, `"`, `\`, <>&, control bytes, invalid UTF-8, U+2028 and U+2029.
var hostileRows = []types.Tuple{
	{},
	{types.Null(), types.NewBool(true), types.NewInt(math.MinInt64), types.NewInt(math.MaxInt64)},
	{types.NewTuple(types.Tuple{types.NewInt(1), types.NewTuple(types.Tuple{types.NewString("in"), types.Null()})})},
	{types.NewBag(types.BagOf([]types.Tuple{{types.NewInt(1), types.NewString("a")}, {}}...))},
	{types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(1e21)},
	{types.NewString("tab\there"), types.NewString(`say "hi" \ back`), types.NewString("<script>&amp;</script>")},
	{types.NewString("\x00\x01\b\f\n\r\x1f\x7f"), types.NewString("bad \xff\xfe utf8 \xc3"), types.NewString("line\u2028para\u2029end")},
}

// encodedReply is the parent's rule for a /v1/query reply: QueryResponse
// with every output's ReadOutputTSV lines, through json.Encoder.
func encodedReply(t *testing.T, sys *restore.System, deduped bool, res *restore.Result, withRows bool, trace *obs.TraceSnapshot) []byte {
	t.Helper()
	resp := QueryResponse{Deduped: deduped, Result: res, Trace: trace}
	if withRows {
		resp.Rows = make(map[string][]string)
		for p := range res.Outputs {
			lines, err := sys.ReadOutputTSV(res, p)
			if err != nil {
				t.Fatal(err)
			}
			resp.Rows[p] = lines
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryReplyMatchesEncoder pins that the one-pass reply writer
// (readRows + writeQueryReply) emits byte for byte what encoding/json writes
// for the same QueryResponse, so clients decoding QueryResponse see no
// change: hostile rows, an empty output ([] not null), keys that need
// escaping and sorting, a trace or none, deduped or not, rows or none.
// Then, over HTTP, a hostile query's reply is the same bytes and decodes
// through Client.Submit to ReadOutputTSV's lines.
func TestQueryReplyMatchesEncoder(t *testing.T) {
	srv, c := newTestServer(t)
	sys := srv.System()
	uploadPages(t, c)
	if err := sys.FS().WriteTuples("data/hostile", types.Schema{}, hostileRows); err != nil {
		t.Fatal(err)
	}
	if err := sys.FS().WriteTuples("data/empty", types.Schema{}, nil); err != nil {
		t.Fatal(err)
	}
	executed, err := sys.Execute(projectQuery)
	if err != nil {
		t.Fatal(err)
	}
	trace := &obs.TraceSnapshot{TotalNanos: 1234, Spans: []obs.Span{{Stage: "parse", DurNanos: 5}, {Stage: "rows<&>", StartNanos: 5, DurNanos: 7}}}

	for _, tc := range []struct {
		name    string
		outputs map[string]string
	}{
		{"hostile", map[string]string{"out/hostile": "data/hostile"}},
		{"empty", map[string]string{"out/empty": "data/empty"}},
		{"escaped keys", map[string]string{
			"out/z": "data/pages", "out/<a>&\"b\"": "data/hostile", "out/A\u2028\t\xff": "data/pages", "out/a": "data/empty",
		}},
		{"executed", executed.Outputs},
		{"no outputs", map[string]string{}},
	} {
		res := *executed
		res.Outputs = tc.outputs
		for _, withRows := range []bool{true, false} {
			for _, deduped := range []bool{false, true} {
				for _, tr := range []*obs.TraceSnapshot{nil, trace} {
					var rows []byte
					if withRows {
						if rows, err = readRows(sys, &res); err != nil {
							t.Fatal(err)
						}
					}
					rec := httptest.NewRecorder()
					writeQueryReply(rec, deduped, &res, rows, tr)
					want := encodedReply(t, sys, deduped, &res, withRows, tr)
					if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
						t.Fatalf("%s (rows %v, deduped %v, trace %v):\ngot  %s\nwant %s", tc.name, withRows, deduped, tr != nil, got, want)
					}
					if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" {
						t.Fatalf("%s: HTTP %d, Content-Type %q", tc.name, rec.Code, ct)
					}
				}
			}
		}
	}

	// Over HTTP: a query storing the hostile rows, with and without a trace.
	const hostileQuery = `A = load 'data/hostile'; store A into 'out/hostile';`
	for _, path := range []string{"/v1/query", "/v1/query?trace=1"} {
		body, _ := json.Marshal(QueryRequest{Script: hostileQuery, ReadOutputs: true})
		resp, err := http.Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v: %s", path, resp.StatusCode, err, raw)
		}
		var got QueryResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if (got.Trace != nil) != strings.Contains(path, "trace=1") {
			t.Fatalf("%s: trace present = %v", path, got.Trace != nil)
		}
		if want := encodedReply(t, sys, got.Deduped, got.Result, true, got.Trace); !bytes.Equal(raw, want) {
			t.Fatalf("%s:\ngot  %s\nwant %s", path, raw, want)
		}
	}
	// JSON has no invalid UTF-8, so the decoded rows are the lines as the
	// parent's reply decoded to: ReadOutputTSV's lines through encoding/json.
	got, err := c.Submit(hostileQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	var want QueryResponse
	if err := json.Unmarshal(encodedReply(t, sys, false, got.Result, true, nil), &want); err != nil {
		t.Fatal(err)
	}
	if rows := got.Rows["out/hostile"]; len(rows) != len(hostileRows) || !reflect.DeepEqual(rows, want.Rows["out/hostile"]) {
		t.Fatalf("Client.Submit rows:\ngot  %q\nwant %q", rows, want.Rows["out/hostile"])
	}
}
