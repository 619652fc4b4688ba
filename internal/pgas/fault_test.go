package pgas

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestFaultErrorFormatting(t *testing.T) {
	cases := []struct {
		name string
		fe   FaultError
		want []string // substrings that must appear
	}{
		{
			name: "full",
			fe:   FaultError{Rank: 3, Op: "Get(seg=1, off=128, n=64)", Phase: "op", Err: io.EOF},
			want: []string{"rank 3", "[op]", "Get(seg=1, off=128, n=64)", "EOF"},
		},
		{
			name: "unknown rank",
			fe:   FaultError{Rank: -1, Phase: "rendezvous"},
			want: []string{"pgas: fault", "[rendezvous]"},
		},
		{
			name: "with detail",
			fe:   FaultError{Rank: 0, Phase: "peer-death", Detail: "task-parallel phase"},
			want: []string{"rank 0", "[peer-death]", "task-parallel phase"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.fe.Error()
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("Error() = %q, missing %q", got, w)
				}
			}
		})
	}
}

func TestAsFault(t *testing.T) {
	fe := &FaultError{Rank: 7, Phase: "exit", Err: io.ErrUnexpectedEOF}
	wrapped := fmt.Errorf("run failed: %w", fe)
	got, ok := AsFault(wrapped)
	if !ok || got.Rank != 7 {
		t.Fatalf("AsFault(wrapped) = %v, %v; want rank 7", got, ok)
	}
	if !errors.Is(wrapped, io.ErrUnexpectedEOF) {
		t.Error("FaultError does not unwrap to its cause")
	}
	if _, ok := AsFault(errors.New("plain")); ok {
		t.Error("AsFault matched a plain error")
	}
}

// FuzzDecodeFault: DecodeFault reads bytes another process wrote, so no
// input may panic it; a buffer built from the input by AppendFault decodes
// back to the same Rank/Phase/Detail/Err text; and every truncation of
// that buffer (the ipc fault record and report slots are fixed-size)
// still decodes the fields that arrived whole, plus the surviving head of
// the one the cut landed in.
func FuzzDecodeFault(f *testing.F) {
	f.Add([]byte{}, 3, "peer-death", "task-parallel phase (TC.Process)", "connection reset")
	f.Add([]byte{1, 2, 3}, -1, "", "", "")
	f.Add(AppendFault(nil, &FaultError{Rank: 7, Phase: "exit"}), 0, "op", "d", "e")
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 'x'}, 1<<31-1, "injected-crash", "", "boom")
	f.Fuzz(func(t *testing.T, raw []byte, rank int, phase, detail, errText string) {
		DecodeFault(raw) // arbitrary bytes: must not panic

		rank = int(int32(rank)) // the wire carries 32 bits
		in := &FaultError{Rank: rank, Op: "not shipped", Phase: phase, Detail: detail}
		if errText != "" {
			in.Err = errors.New(errText)
		}
		text := func(fe *FaultError) string {
			if fe.Err == nil {
				return ""
			}
			return fe.Err.Error()
		}
		enc := AppendFault(raw, in)[len(raw):] // appends, whatever precedes
		out := DecodeFault(enc)
		if out.Rank != rank || out.Phase != phase || out.Detail != detail || text(out) != errText || out.Op != "" {
			t.Fatalf("round trip: sent %+v, got %+v", in, out)
		}
		if got := DecodeFault(append(enc, raw...)); got.Error() != out.Error() {
			t.Fatalf("trailing bytes changed the decode: %v vs %v", got, out)
		}
		for cut := 4; cut < len(enc); cut++ {
			got := DecodeFault(enc[:cut])
			if got.Rank != rank ||
				!strings.HasPrefix(phase, got.Phase) || !strings.HasPrefix(detail, got.Detail) || !strings.HasPrefix(errText, text(got)) {
				t.Fatalf("cut at %d of %d: %+v is not a prefix of %+v", cut, len(enc), got, in)
			}
			// A field is short only if the cut landed in it, and then
			// nothing follows it.
			if (got.Phase != phase && got.Detail != "") || (got.Detail != detail && text(got) != "") {
				t.Fatalf("cut at %d of %d: field after a truncated one survived: %+v", cut, len(enc), got)
			}
			if whole := 4 + 4 + len(phase); cut >= whole && got.Phase != phase {
				t.Fatalf("cut at %d: intact Phase lost: %q", cut, got.Phase)
			}
			if whole := 4 + 4 + len(phase) + 4 + len(detail); cut >= whole && got.Detail != detail {
				t.Fatalf("cut at %d: intact Detail lost: %q", cut, got.Detail)
			}
		}
		if got := DecodeFault(enc[:min(len(enc), 3)]); got.Rank != -1 || got.Err == nil {
			t.Fatalf("a buffer too short for a rank decoded as %+v", got)
		}
	})
}
