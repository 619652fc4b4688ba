package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// shmBody is a request body shaped like the serve-shm workload's: 4 fib,
// 4 echo with 16-byte payloads and 24 spin tasks, shuffled, marshalled the
// way its client marshals them.
func shmBody(seed int64, tenant string) []byte {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]taskSpec, 0, 32)
	for i := 0; i < 32; i++ {
		switch {
		case i < 4:
			tasks = append(tasks, taskSpec{Kind: KindFib, Arg: uint64(30 + rng.Intn(60))})
		case i < 8:
			payload := make([]byte, 16)
			rng.Read(payload)
			tasks = append(tasks, taskSpec{Kind: KindEcho, Payload: payload})
		default:
			tasks = append(tasks, taskSpec{Kind: KindSpin, Arg: uint64(5 * time.Microsecond)})
		}
	}
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	body, err := json.Marshal(map[string]any{"tenant": tenant, "tasks": tasks})
	if err != nil {
		panic(err)
	}
	return body
}

// FuzzDecodeSubmit holds the daemon's decode to encoding/json on arbitrary
// bytes: it fails exactly when json.Unmarshal fails and otherwise yields
// the same value, nil versus empty slices and the affinity pointer
// included; a body the fast path accepts is one json.Unmarshal accepts,
// with that value; and nothing decoded aliases the body, which the daemon
// reuses.
func FuzzDecodeSubmit(f *testing.F) {
	maxTasks := New(Config{}).Config().MaxTasksPerSubmit
	// The bodies the daemon is sent take the fast path.
	bodies := [][]byte{shmBody(1, "tenant-0")}
	reqs := []submitReq{oneFib, depChain, cancelChain, echoBatch("", 17), echoBatch("greedy", 2), spinBatch(8, 50*time.Millisecond)}
	for c := 0; c < 8; c++ {
		reqs = append(reqs, mixedBatch(c, 25))
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, body := range bodies {
		if s := (submitScan{b: body, maxTasks: maxTasks}); !s.submit(new(submitReq)) {
			f.Fatalf("the fast path refuses %s", body)
		}
		f.Add(body)
	}
	for _, tc := range invalid {
		body, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		// Inside the fast path, at its edges.
		` {"tenant":"","tasks":[{"kind":"warp","arg":0,"payload":"","affinity":-2147483648,"deps":[]},{}]} `,
		"{\"tasks\":[],\"tenant\":\"~\x7f\"}",
		`{"tasks":[{"deps":[-9223372036854775808,9223372036854775807],"affinity":2147483647,"arg":18446744073709551615}]}`,
		// One per fallback class.
		`{"tenant":"a\"b","tasks":[{"kind":"echo"}]}`,
		`{"tenant":"é","tasks":[{"kind":"echo"}]}`,
		`{"tasks":[{"KIND":"echo"}]}`,
		`{"tasks":[{"kind":"echo","colour":"red"}]}`,
		`{"tenant":null,"tasks":[{"kind":"echo"}]}`,
		`{"tasks":[{"kind":"echo","kind":"fib"}]}`,
		`{"tasks":[{"kind":"spin","arg":1e3}]}`,
		`{"tasks":[{"kind":"spin","arg":18446744073709551616}]}`,
		`{"tasks":[{"kind":"echo","affinity":-0}]}`,
		`{"tasks":[{"kind":"echo","payload":"QQ="}]}`,
		`{"tasks":[{"kind":"echo"}]} trailing garbage`,
		`{"tasks":[{"kind":"echo"}]}{"tasks":[{"kind":"warp"}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want submitReq
		wantErr := json.Unmarshal(body, &want)

		var fast submitReq
		if s := (submitScan{b: body, maxTasks: maxTasks}); s.submit(&fast) {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q, which json.Unmarshal refuses: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as %#v, json.Unmarshal as %#v", body, fast, want)
			}
		}

		reused := bytes.Clone(body)
		var got submitReq
		err := decodeSubmit(reused, maxTasks, &got)
		for i := range reused {
			reused[i] = 'x'
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decode of %q: error %v, json.Unmarshal's %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode of %q (body overwritten after) is %#v, json.Unmarshal's %#v", body, got, want)
		}
	})
}

// TestResultLineMatchesEncoder: appendResultLine writes what json.Encoder
// writes for the same record, for every kind code and for results from
// nil to 64 bytes.
func TestResultLineMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for code := 0; code < 256; code++ {
		for j := 0; j < 8; j++ {
			var result []byte
			if j > 0 {
				result = make([]byte, rng.Intn(65))
				rng.Read(result)
			}
			rec := resultRec{
				Task:      rng.Intn(maxTasksHard),
				Kind:      kindName(byte(code)),
				Rank:      rng.Intn(1 << 10),
				ElapsedUS: rng.Int63() - rng.Int63(),
				Result:    result,
			}
			want.Reset()
			if err := enc.Encode(streamEvent{Result: &rec}); err != nil {
				t.Fatal(err)
			}
			if got := appendResultLine(nil, &rec); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("record %+v:\n got %s\nwant %s", rec, got, want.Bytes())
			}
		}
	}
}
