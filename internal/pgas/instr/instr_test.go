package instr

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
)

func TestInstrumentedOpsRecord(t *testing.T) {
	const n = 2
	hub := obs.NewHub()
	w := Wrap(shm.NewWorld(shm.Config{NProcs: n, Seed: 3}), hub, Options{})
	if w.NProcs() != n {
		t.Fatalf("NProcs = %d", w.NProcs())
	}
	if HubOf(w) != hub {
		t.Fatal("HubOf must return the wrapped hub")
	}
	err := w.Run(func(p pgas.Proc) {
		me := p.Rank()
		other := (me + 1) % n
		data := p.AllocData(64)
		words := p.AllocWords(4)
		lk := p.AllocLock()
		p.Barrier()

		buf := make([]byte, 16)
		p.Put(other, data, 0, buf)
		p.Get(buf, other, data, 0)
		p.Get(buf, me, data, 48) // local scope; bytes no peer writes
		p.Store64(other, words, 0, 7)
		p.Load64(other, words, 0)
		p.FetchAdd64(other, words, 1, 1)
		p.CAS64(other, words, 2, 0, 9)
		p.AccF64(other, data, 32, []float64{1, 2})
		p.Lock(other, lk)
		p.Unlock(other, lk)

		var out int64
		p.NbLoad64(other, words, 0, &out)
		p.NbStore64(other, words, 3, int64(me))
		p.Flush()
		p.Barrier()

		p.Send(other, 1, []byte("hi"))
		p.Recv(pgas.AnySource, 1)
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	for rank := 0; rank < n; rank++ {
		reg := hub.Registry(rank)
		var buf bytes.Buffer
		reg.WriteProm(&buf, "")
		out := buf.String()
		for _, want := range []string{
			`scioto_pgas_op_latency_seconds_count{op="put",scope="remote"} 1`,
			`scioto_pgas_op_latency_seconds_count{op="get",scope="remote"} 1`,
			`scioto_pgas_op_latency_seconds_count{op="get",scope="local"} 1`,
			`scioto_pgas_op_latency_seconds_count{op="store64",scope="remote"} 1`,
			// The CAS64 itself, and the Lock and the Unlock: each is one
			// CAS64 by the time it reaches a wrapper.
			`scioto_pgas_op_latency_seconds_count{op="cas64",scope="remote"} 3`,
			`scioto_pgas_op_latency_seconds_count{op="barrier",scope="remote"} 3`,
			`scioto_pgas_nb_window_seconds_count{op="nbload64"} 1`,
			`scioto_pgas_nb_window_seconds_count{op="nbstore64"} 1`,
			// The Send and the Recv, and each barrier's one round at P = 2:
			// a barrier is Front's Send and Recv over this layer.
			`scioto_pgas_op_latency_seconds_count{op="send",scope="remote"} 4`,
			`scioto_pgas_op_latency_seconds_count{op="recv",scope="remote"} 4`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("rank %d missing %q", rank, want)
			}
		}
		// bytes: in = get 16 + local get 16 + load 8 + fetchadd 8 + nbload 8 + recv 2 = 58
		// out = put 16 + store 8 + acc 16 + nbstore 8 + send 2 = 50
		if got := reg.Counter(`scioto_pgas_bytes_total{dir="in"}`, "").Value(); got != 58 {
			t.Errorf("rank %d bytes in = %d, want 58", rank, got)
		}
		if got := reg.Counter(`scioto_pgas_bytes_total{dir="out"}`, "").Value(); got != 50 {
			t.Errorf("rank %d bytes out = %d, want 50", rank, got)
		}
		if got := reg.Gauge("scioto_pgas_nb_inflight", "").Value(); got != 0 {
			t.Errorf("rank %d inflight = %d, want 0 after Flush", rank, got)
		}
	}
}

func TestRegistriesStayCongruent(t *testing.T) {
	// Ranks doing different operations must still register identical
	// schemas (pre-created instruments), or cross-rank merge would break.
	hub := obs.NewHub()
	w := Wrap(shm.NewWorld(shm.Config{NProcs: 2, Seed: 1}), hub, Options{})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		p.Barrier()
		if p.Rank() == 0 {
			p.Store64(1, words, 0, 5) // only rank 0 communicates
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if hub.Registry(0).SchemaHash() != hub.Registry(1).SchemaHash() {
		t.Fatal("schemas diverged between ranks with different op mixes")
	}
}

func TestMergeOverInstrumentedWorld(t *testing.T) {
	hub := obs.NewHub()
	w := Wrap(shm.NewWorld(shm.Config{NProcs: 4, Seed: 9}), hub, Options{})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		p.Barrier()
		other := (p.Rank() + 1) % p.NProcs()
		for i := 0; i < 3; i++ {
			p.Store64(other, words, 0, int64(i))
		}
		p.Barrier()

		// Merging through the instrumented proc also works: the merger's
		// own collective traffic records into the same registry, but the
		// snapshot was taken before the gather, so counts stay exact.
		snap := obs.NewMerger(p, hub.Registry(p.Rank())).Merge()
		if got := snap.HistCount(`scioto_pgas_op_latency_seconds{op="store64",scope="remote"}`); got != 12 {
			panic("merged store64 count wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEndpointServesDuringRun(t *testing.T) {
	hub := obs.NewHub()
	w := Wrap(shm.NewWorld(shm.Config{NProcs: 2, Seed: 4}), hub, Options{Addr: "127.0.0.1:0"})
	iw := w.(*world)
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(1)
		p.Barrier()
		p.Store64((p.Rank()+1)%2, words, 0, 1)
		p.Barrier()
		if p.Rank() == 0 {
			iw.mu.Lock()
			if len(iw.servers) != 1 {
				iw.mu.Unlock()
				panic("expected exactly one shared server")
			}
			addr := iw.servers[0].Addr()
			iw.mu.Unlock()
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				panic(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), `scioto_pgas_op_latency_seconds_bucket{rank="0",op="store64",scope="remote",le="+Inf"} 1`) {
				panic("live scrape missing store64 histogram:\n" + string(body))
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Servers close when Run returns.
	iw.mu.Lock()
	defer iw.mu.Unlock()
	if len(iw.servers) != 0 {
		t.Fatal("servers must be closed after Run")
	}
}

func TestServeAddrPerRank(t *testing.T) {
	w := &world{opts: Options{Addr: "127.0.0.1:9100", PerRankPort: true}}
	got, err := w.serveAddr(3)
	if err != nil || got != "127.0.0.1:9103" {
		t.Fatalf("serveAddr = %q, %v", got, err)
	}
	// Ephemeral port: no shift.
	w.opts.Addr = "127.0.0.1:0"
	got, err = w.serveAddr(3)
	if err != nil || got != "127.0.0.1:0" {
		t.Fatalf("serveAddr ephemeral = %q, %v", got, err)
	}
	w.opts.Addr = "bogus"
	if _, err = w.serveAddr(0); err == nil {
		t.Fatal("expected error for bad address")
	}
}
