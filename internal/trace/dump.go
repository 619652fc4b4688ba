package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Dump is the on-disk form of one rank's recorder, written per rank at
// the end of a run and merged across ranks by cmd/sciototrace. It is
// self-describing: Records are [kind, startNs, endNs, a1, a2] with kind
// indexing the dump's own Kinds table, so a consumer needs no catalogue
// of its own.
type Dump struct {
	Rank    int        `json:"rank"`
	Dropped int64      `json:"dropped"`
	Kinds   []KindInfo `json:"kinds"`
	Records [][5]int64 `json:"records"`
}

// WriteDump serializes the recorder's retained records to w.
func (r *Recorder) WriteDump(w io.Writer) error {
	d := Dump{Rank: r.Rank(), Dropped: r.Dropped(), Kinds: catalogue[:]}
	recs := r.Records()
	d.Records = make([][5]int64, len(recs))
	for i, e := range recs {
		d.Records[i] = [5]int64{int64(e.Kind), int64(e.Start), int64(e.End), e.A1, e.A2}
	}
	return json.NewEncoder(w).Encode(&d)
}

// WriteFile dumps the recorder to dir/trace-rankNNNN.json, creating dir
// if needed, and returns the path written.
func (r *Recorder) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-rank%04d.json", r.Rank()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteDump(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// maxNs bounds a dump's timestamps (nanoseconds since the run began) so
// that consumers' window arithmetic cannot overflow.
const maxNs = 1 << 62

// ReadDump parses a dump written by WriteDump. The bytes come from another
// process, so every record is checked before a consumer indexes or
// computes with it: five words, a kind inside the dump's own table, and
// 0 ≤ start ≤ end < maxNs.
func ReadDump(rd io.Reader) (*Dump, error) {
	// Records shadows Dump.Records: a fixed-size array would silently pad
	// or truncate a record of the wrong length.
	var raw struct {
		Dump
		Records [][]int64 `json:"records"`
	}
	if err := json.NewDecoder(rd).Decode(&raw); err != nil {
		return nil, fmt.Errorf("trace: parse dump: %w", err)
	}
	d := &raw.Dump
	d.Records = make([][5]int64, len(raw.Records))
	for i, q := range raw.Records {
		switch {
		case len(q) != 5:
			return nil, fmt.Errorf("trace: dump record %d has %d words, want 5", i, len(q))
		case q[0] < 0 || q[0] >= int64(len(d.Kinds)):
			return nil, fmt.Errorf("trace: dump record %d names kind %d of %d", i, q[0], len(d.Kinds))
		case q[1] < 0 || q[2] < q[1] || q[2] >= maxNs:
			return nil, fmt.Errorf("trace: dump record %d spans [%d, %d], want 0 ≤ start ≤ end < 2^62", i, q[1], q[2])
		}
		d.Records[i] = [5]int64(q)
	}
	return d, nil
}
