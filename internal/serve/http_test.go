package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// bare is a daemon without a world: its handlers admit, nothing executes.
func bare() *Daemon {
	d := New(Config{Logf: func(string, ...any) {}})
	d.m = newMetrics(nil)
	return d
}

// post drives handleSubmit with body.
func post(d *Daemon, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	d.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
	return rec
}

// stream drives handleStream for submission id to its done line.
func stream(d *Daemon, id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.SetPathValue("id", id)
	rec := httptest.NewRecorder()
	d.handleStream(rec, req)
	return rec
}

// TestSubmitIsOneDocument: a body is one JSON document, so bytes after it
// are malformed — on the fast path and on the fallback (the escaped tenant).
func TestSubmitIsOneDocument(t *testing.T) {
	d := bare()
	for _, tenant := range []string{`"t/"`, `"t\/"`} {
		for _, body := range []string{
			`{"tenant":` + tenant + `,"tasks":[{"kind":"echo"}]} trailing garbage`,
			`{"tenant":` + tenant + `,"tasks":[{"kind":"echo"}]}{"tasks":[{"kind":"warp"}]}`,
		} {
			if rec := post(d, []byte(body)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "malformed request") {
				t.Errorf("%s: %d %s, want 400 malformed request", body, rec.Code, rec.Body)
			}
		}
		if rec := post(d, []byte(`{"tenant":`+tenant+`,"tasks":[{"kind":"echo"}]}`+" \t\r\n")); rec.Code != http.StatusAccepted {
			t.Errorf("tenant %s, trailing whitespace: %d %s, want 202", tenant, rec.Code, rec.Body)
		}
	}
}

// TestOversizedBodyIs413: a body one byte over maxRequestBytes is refused
// as too large, with the limit named and no Retry-After (waiting will not
// help); one at the limit is admitted.
func TestOversizedBodyIs413(t *testing.T) {
	d := bare()
	doc := `{"tasks":[{"kind":"echo"}]}`
	rec := post(d, []byte(doc+strings.Repeat(" ", maxRequestBytes+1-len(doc))))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), strconv.Itoa(maxRequestBytes)) {
		t.Errorf("body of maxRequestBytes+1: %d %s, want 413 naming the limit", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("413 carries Retry-After %q", ra)
	}
	if rec := post(d, []byte(doc+strings.Repeat(" ", maxRequestBytes-len(doc)))); rec.Code != http.StatusAccepted {
		t.Errorf("body of maxRequestBytes: %d %s, want 202", rec.Code, rec.Body)
	}
}

// TestAcceptAndDoneBytes pins the two documents that carry the tenant, for
// a tenant that needs JSON escaping, and the result line between them.
func TestAcceptAndDoneBytes(t *testing.T) {
	d := bare()
	rec := post(d, []byte(`{"tenant":"<&>\" ","tasks":[{"kind":"echo","payload":"aGk="}]}`))
	// The tenant <&>" as encoding/json writes it, HTML-safe.
	const tenant = `"` + "\x5cu003c\x5cu0026\x5cu003e" + `\" "`
	const accept = `{"id":"s-000001","stream":"/v1/submissions/s-000001/stream","tasks":1,"tenant":` + tenant + "}\n"
	if rec.Code != http.StatusAccepted || rec.Body.String() != accept {
		t.Fatalf("accept: %d %s, want 202 %s", rec.Code, rec.Body, accept)
	}

	d.mu.Lock()
	sub := d.subs["s-000001"]
	sub.tasks[0].phase = taskInFlight
	d.inFlight++
	res := make([]byte, recHdr+2)
	pgas.PutU64(res, packID(sub.serial, 0))
	pgas.PutI64(res[8:], int64(7*time.Microsecond))
	pgas.PutI32(res[16:], 2)
	copy(res[recHdr:], "hi")
	d.deliver(res, 1, time.Now())
	sub.created = time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	sub.doneAt = sub.created.Add(time.Millisecond)
	d.mu.Unlock()

	const lines = `{"result":{"task":0,"kind":"echo","rank":1,"elapsed_us":7,"result":"aGk="}}` + "\n" +
		`{"done":{"id":"s-000001","tenant":` + tenant + `,"state":"done","tasks":1,"completed":1,"created":"2026-01-02T03:04:05.000000006Z","done_at":"2026-01-02T03:04:05.001000006Z"}}` + "\n"
	if rec := stream(d, "s-000001"); rec.Body.String() != lines {
		t.Fatalf("stream:\n%s\nwant\n%s", rec.Body, lines)
	}
}

// TestSubmissionAllocs gates the allocations of one round of the serve-shm
// workload's shape — a 32-task submission, admitted, executed on a P = 2
// shm world and streamed back — with the handlers driven in process, so
// the count is the daemon's and httptest's, not a client stack's.
func TestSubmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random; the gate runs in normal builds")
	}
	d, _, done := startDaemon(t, 2, Config{})
	body := shmBody(1, "tenant-0")
	round := func() {
		if rec := post(d, body); rec.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		d.mu.Lock()
		id := d.order[len(d.order)-1].id
		d.mu.Unlock()
		if n := bytes.Count(stream(d, id).Body.Bytes(), []byte("\n")); n != 33 {
			t.Fatalf("streamed %d lines, want 32 results and the done line", n)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(200, round)
	drainAndWait(t, d, done)
	const gate = 70 // 64 measured with go1.24, + 10 %; about 35 are httptest's requests and recorders
	t.Logf("%.1f allocations per submission", allocs)
	if allocs > gate {
		t.Errorf("%.1f allocations per submission, gate %d", allocs, gate)
	}
}
