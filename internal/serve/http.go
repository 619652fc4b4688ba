package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxRequestBytes bounds one submit request body. Generous relative to
// MaxTasksPerSubmit*MaxPayload defaults; real protection is admission.
const maxRequestBytes = 16 << 20

// startHTTP binds the gateway endpoint and serves the ingest API in the
// background. The returned stop function gracefully shuts the server
// down (in-flight responses, including open result streams, get a short
// deadline to finish). A connection that has sent no request yet — a
// client transport's spare dial — is closed first: http.Server.Shutdown
// would wait five seconds for it to prove itself idle.
func (d *Daemon) startHTTP(nprocs int) (stop func(), err error) {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", d.handleSubmit)
	mux.HandleFunc("GET /v1/submissions", d.handleList)
	mux.HandleFunc("GET /v1/submissions/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/submissions/{id}/stream", d.handleStream)
	mux.HandleFunc("DELETE /v1/submissions/{id}", d.handleCancel)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		d.handleHealthz(w, r, nprocs)
	})
	var connMu sync.Mutex
	fresh := make(map[net.Conn]struct{}) // connections still in StateNew
	stopping := false
	srv := &http.Server{Handler: mux, ConnState: func(c net.Conn, st http.ConnState) {
		connMu.Lock()
		defer connMu.Unlock()
		switch {
		case st != http.StateNew:
			delete(fresh, c)
		case stopping:
			c.Close()
		default:
			fresh[c] = struct{}{}
		}
	}}
	d.mu.Lock()
	d.addr = ln.Addr().String()
	d.mu.Unlock()
	close(d.ready)
	d.cfg.Logf("sciotod: serving http://%s (procs %d)", ln.Addr(), nprocs)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			d.cfg.Logf("sciotod: http server: %v", err)
		}
	}()
	return func() {
		connMu.Lock()
		stopping = true
		for c := range fresh {
			c.Close()
		}
		connMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}, nil
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// bufs recycles request bodies and result lines, emptied by putBuf.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBuf returns b to bufs, unless it grew past 64 KiB: a rare large body
// is left to the collector rather than pinned by the pool.
func putBuf(b *bytes.Buffer) {
	b.Reset()
	if b.Cap() <= 64<<10 {
		bufs.Put(b)
	}
}

// accepted is the 202 document. Its fields keep the document's sorted key
// order, which TestAcceptAndDoneBytes pins.
type accepted struct {
	ID     string `json:"id"`
	Stream string `json:"stream"`
	Tasks  int    `json:"tasks"`
	Tenant string `json:"tenant"`
}

// handleSubmit: POST /v1/submit — validate, admit, queue, 202 with the
// submission's lifecycle ID. Refusals: 400 malformed (the body must be
// one JSON document), 413 over maxRequestBytes, 429 over admission
// limits (with Retry-After), 503 draining.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf := bufs.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over the limit of %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "malformed request: %v", err)
		}
		return
	}
	var req submitReq
	if err := decodeSubmit(buf.Bytes(), d.cfg.MaxTasksPerSubmit, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request: %v", err)
		return
	}
	if err := d.validate(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sub, aerr := d.admit(&req)
	if aerr != nil {
		if aerr.retryAfter > 0 {
			secs := int(aerr.retryAfter.Seconds() + 0.999)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		}
		writeJSON(w, aerr.status, map[string]any{
			"error":          aerr.reason,
			"retry_after_ms": aerr.retryAfter.Milliseconds(),
		})
		return
	}
	writeJSON(w, http.StatusAccepted, accepted{
		ID:     sub.id,
		Stream: "/v1/submissions/" + sub.id + "/stream",
		Tasks:  len(sub.tasks),
		Tenant: sub.tenant,
	})
}

// summary is one submission's status document. Counts are phase
// tallies; queued includes tasks requeued by a full deferred pool.
type summary struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	Tasks     int    `json:"tasks"`
	Completed int    `json:"completed"`
	Dropped   int    `json:"dropped,omitempty"`
	Queued    int    `json:"queued,omitempty"`
	Deferred  int    `json:"deferred,omitempty"`
	InFlight  int    `json:"in_flight,omitempty"`
	Created   string `json:"created"`
	DoneAt    string `json:"done_at,omitempty"`
}

// summarize builds a submission's status document. Caller holds d.mu.
func summarize(sub *submission) summary {
	s := summary{
		ID:        sub.id,
		Tenant:    sub.tenant,
		State:     sub.state(),
		Tasks:     len(sub.tasks),
		Completed: sub.completed,
		Dropped:   sub.dropped,
		Created:   sub.created.UTC().Format(time.RFC3339Nano),
	}
	if !sub.doneAt.IsZero() {
		s.DoneAt = sub.doneAt.UTC().Format(time.RFC3339Nano)
	}
	for i := range sub.tasks {
		switch sub.tasks[i].phase {
		case taskQueued:
			s.Queued++
		case taskDeferred:
			s.Deferred++
		case taskInFlight:
			s.InFlight++
		}
	}
	return s
}

// handleList: GET /v1/submissions — summaries, oldest first.
func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	out := make([]summary, len(d.order))
	for i, sub := range d.order {
		out[i] = summarize(sub)
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"submissions": out})
}

// handleStatus: GET /v1/submissions/{id}.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	sub := d.subs[r.PathValue("id")]
	if sub == nil {
		d.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown submission %q", r.PathValue("id"))
		return
	}
	s := summarize(sub)
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, s)
}

// handleCancel: DELETE /v1/submissions/{id}.
func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, changed := d.cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "unknown submission %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": changed})
}

// streamEvent is one NDJSON line on a result stream: a result record,
// then one final summary line when the submission goes terminal.
type streamEvent struct {
	Result *resultRec `json:"result,omitempty"`
	Done   *summary   `json:"done,omitempty"`
}

// handleStream: GET /v1/submissions/{id}/stream — NDJSON, one line per
// completed task as results arrive, terminated by a {"done": …} line.
// Joining late replays the retained result log first, so the stream is
// a complete record regardless of when the client connects.
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	sub := d.subs[r.PathValue("id")]
	d.mu.Unlock()
	if sub == nil {
		writeError(w, http.StatusNotFound, "unknown submission %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	lines := bufs.Get().(*bytes.Buffer)
	defer putBuf(lines)
	next := 0
	for {
		d.mu.Lock()
		chunk := sub.results[next:]
		next = len(sub.results)
		var final *summary
		if sub.remaining == 0 {
			s := summarize(sub)
			final = &s
		}
		notify := sub.notify
		d.mu.Unlock()

		lines.Reset()
		for i := range chunk {
			lines.Write(appendResultLine(lines.AvailableBuffer(), &chunk[i]))
		}
		if _, err := w.Write(lines.Bytes()); err != nil {
			return
		}
		if final != nil {
			json.NewEncoder(w).Encode(streamEvent{Done: final})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// appendResultLine appends rec's stream line: the bytes json.Encoder
// writes for streamEvent{Result: rec}, without the reflection. Kind names
// need no escaping (kindName), nor does base64.
func appendResultLine(b []byte, rec *resultRec) []byte {
	b = append(b, `{"result":{"task":`...)
	b = strconv.AppendInt(b, int64(rec.Task), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, rec.Kind...)
	b = append(b, `","rank":`...)
	b = strconv.AppendInt(b, int64(rec.Rank), 10)
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, rec.ElapsedUS, 10)
	if len(rec.Result) > 0 {
		b = append(b, `,"result":"`...)
		b = base64.StdEncoding.AppendEncode(b, rec.Result)
		b = append(b, '"')
	}
	return append(b, "}}\n"...)
}

// handleHealthz: GET /v1/healthz — daemon liveness and load.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request, nprocs int) {
	d.mu.Lock()
	state := "serving"
	if d.stopped {
		state = "stopped"
	} else if d.draining {
		state = "draining"
	}
	doc := map[string]any{
		"status":         state,
		"procs":          nprocs,
		"pending":        d.pending,
		"ingest_queue":   len(d.queue),
		"in_flight":      d.inFlight,
		"deferred":       d.deferred,
		"submissions":    len(d.order),
		"uptime_seconds": int64(time.Since(d.start).Seconds()),
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}
