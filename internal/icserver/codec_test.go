package icserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"icsched/internal/dag"
)

// FuzzWireCodec holds the hand-written codec to encoding/json:
//   - the /report request encoder writes json.Marshal's bytes exactly;
//   - every reply the encoders write decodes under json.Unmarshal to the
//     struct it was written from (and is json.Encoder's bytes);
//   - whenever a fast-path parser accepts a body, encoding/json decodes
//     the same body without error to the same value.
//
// Structs come from two places: whatever json.Unmarshal makes of the
// input, and a synthetic one whose ids, counts, names and job id are the
// raw input bytes (so names and job ids cover escapes and non-ASCII
// text).
func FuzzWireCodec(f *testing.F) {
	for _, seed := range []string{
		// The golden request and reply bodies of the batched wire.
		`{"done":[0],"failed":null,"k":2,"epoch":1}`,
		`{"done":[1],"failed":[2],"k":4,"epoch":1}`,
		`{"done":[2],"failed":null,"k":4,"epoch":2}`,
		`{"tasks":[0],"epoch":1}`,
		`{"tasks":[],"epoch":2}`,
		`{"newlyEligible":1,"completed":1,"duplicates":0,"requeued":0,"quarantined":0,"tasks":[1,2],"epoch":1}`,
		`{"newlyEligible":1,"completed":1,"duplicates":0,"requeued":0,"quarantined":0,"finished":true,"epoch":2}`,
		`{"newlyEligible":0,"completed":0,"duplicates":0,"requeued":0,"quarantined":0,"tasks":[3],"names":["a<b>","n4"],"epoch":1}`,
		// Edges the fast path must decline or get exactly right.
		`{"done":[],"k":-1}`, " {\n\t\"k\" : -0 ,\"done\":null } \r\n", `{"k":1e2}`, `{"k":1.0}`,
		`{"k":01}`, `{"done":[1,]}`, `{"done":[1],"done":[2]}`, `{"Done":[1]}`, `{"k":null}`,
		`{"epoch":-0}`, `{"epoch":18446744073709551615}`, `{"done":[2147483648]}`, `{"done":[-2147483648]}`,
		`{"finished":true,"finished":false}`, `{"tasks":[1]} x`, `{}`, `{"job":"j1","tasks":[0]}`, "",
		// A job service's bodies: a plain job id, ids the fast path must
		// decline (an escape, non-ASCII, null), and an empty grant.
		`{"job":"j12","done":[0],"failed":null,"k":2,"epoch":1}`,
		`{"job":"j12","epoch":3,"tasks":[4,5]}`,
		`{"newlyEligible":1,"completed":1,"job":"j3","tasks":[7],"jobFinished":true,"epoch":1}`,
		`{"job":"j\"1","done":[0],"epoch":1}`, `{"job":"j\u00e9","tasks":[0]}`, `{"job":"jé"}`,
		`{"job":null,"jobFinished":false}`, `{"tasks":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParser(t, data, parseReportRequest)
		checkParser(t, data, parseReportReply)
		checkParser(t, data, parseGrant)

		var req ReportRequest
		if json.Unmarshal(data, &req) == nil {
			checkRequestEncoder(t, req)
		}
		var rep ReportReply
		if json.Unmarshal(data, &rep) == nil {
			checkReplyEncoders(t, rep)
		}
		ids, names := synthetic(data)
		n := len(data)
		job := ""
		if n%4 != 0 {
			job = names[0] // every fourth body is a single-dag server's, without a job
		}
		checkRequestEncoder(t, ReportRequest{Job: job, Done: ids, Failed: ids[:len(ids)/2], K: n - 3, Epoch: uint64(n)})
		checkReplyEncoders(t, ReportReply{
			BatchReport: BatchReport{NewlyEligible: n, Completed: -n, Duplicates: n / 2, Requeued: 1, Quarantined: n % 3},
			Job:         job, Tasks: ids, Names: names, Finished: n%2 == 1, JobFinished: n%3 == 1, Epoch: uint64(n) << 40,
		})
	})
}

// checkParser: an accepted body decodes under encoding/json to the same
// value.
func checkParser[T any](t *testing.T, data []byte, fast func([]byte) (T, bool)) {
	got, ok := fast(data)
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: fast path %+v, encoding/json %+v", data, got, want)
	}
}

func checkRequestEncoder(t *testing.T, req ReportRequest) {
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendReportRequest(nil, &req); !bytes.Equal(got, want) {
		t.Fatalf("request %+v encoded as\n%s\nwant\n%s", req, got, want)
	}
}

// checkReplyEncoders encodes rep as a /report reply, and its grant as a
// /tasks reply.  The server never sends an empty non-nil task or name
// list where the field is omitempty, so those are normalized to nil
// before the round trip.
func checkReplyEncoders(t *testing.T, rep ReportReply) {
	if len(rep.Tasks) == 0 {
		rep.Tasks = nil
	}
	if len(rep.Names) == 0 {
		rep.Names = nil
	}
	roundTrip(t, rep, appendReportReply(nil, &rep))
	grant := Grant{Job: rep.Job, Epoch: rep.Epoch, Tasks: rep.Tasks, Names: rep.Names}
	roundTrip(t, grant, appendGrant(nil, &grant))
}

func roundTrip[T any](t *testing.T, v T, enc []byte) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Fatalf("%+v encoded as\n%s\njson.Encoder writes\n%s", v, enc, buf.Bytes())
	}
	var back T
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("%s does not decode: %v", enc, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%s decodes to %+v, encoded from %+v", enc, back, v)
	}
}

// synthetic reads task ids (int32 little-endian words) and names (runs
// split on '|', made valid UTF-8 — json.Marshal would substitute U+FFFD,
// and the round trip could not return the original) out of raw bytes.
func synthetic(data []byte) ([]dag.NodeID, []string) {
	ids := make([]dag.NodeID, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		ids = append(ids, dag.NodeID(binary.LittleEndian.Uint32(data[i:])))
	}
	var names []string
	if len(data) > 0 {
		names = strings.Split(strings.ToValidUTF8(string(data), "\uFFFD"), "|")
	}
	return ids, names
}

// TestWireCodecFastPathAccepts pins that the bodies the codec itself
// writes — every hot-path body on an unlabeled dag, with or without a
// job id — take the fast path.
func TestWireCodecFastPathAccepts(t *testing.T) {
	for _, job := range []string{"", "j12"} {
		req := ReportRequest{Job: job, Done: []dag.NodeID{3, 1}, Failed: nil, K: 16, Epoch: 2}
		if got, ok := parseReportRequest(appendReportRequest(nil, &req)); !ok || !reflect.DeepEqual(got, req) {
			t.Fatalf("request: %+v, %v", got, ok)
		}
		rep := ReportReply{BatchReport: BatchReport{NewlyEligible: 2, Completed: 2}, Job: job, Tasks: []dag.NodeID{7, 8},
			JobFinished: job != "", Epoch: 2}
		if got, ok := parseReportReply(appendReportReply(nil, &rep)); !ok || !reflect.DeepEqual(got, rep) {
			t.Fatalf("reply: %+v, %v", got, ok)
		}
		grant := Grant{Job: job, Tasks: []dag.NodeID{}, Epoch: 9}
		if got, ok := parseGrant(appendGrant(nil, &grant)); !ok || !reflect.DeepEqual(got, grant) {
			t.Fatalf("grant: %+v, %v", got, ok)
		}
	}
}

// TestWireCodecDeclinesEscapedJob pins that a job id json.Marshal
// escapes makes every fast-path parser decline, and encoding/json still
// decodes it.
func TestWireCodecDeclinesEscapedJob(t *testing.T) {
	const job = "j<\"é>"
	req := ReportRequest{Job: job, Done: []dag.NodeID{1}, Epoch: 3}
	rep := ReportReply{Job: job, Tasks: []dag.NodeID{4}, Epoch: 5}
	grant := Grant{Job: job, Epoch: 6, Tasks: []dag.NodeID{4}}
	checkDeclines(t, appendReportRequest(nil, &req), parseReportRequest, req)
	checkDeclines(t, appendReportReply(nil, &rep), parseReportReply, rep)
	checkDeclines(t, appendGrant(nil, &grant), parseGrant, grant)
}

func checkDeclines[T any](t *testing.T, body []byte, fast func([]byte) (T, bool), want T) {
	if _, ok := fast(body); ok {
		t.Fatalf("fast path accepted the escaped job id in %s", body)
	}
	if got, err := decodeFast(body, fast); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s decodes to %+v, %v; want %+v", body, got, err, want)
	}
}
