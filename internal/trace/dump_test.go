package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(3, 100, nil)
	us := time.Microsecond
	r.Record(Exec, 10*us, 18*us, 7, 1)
	r.Record(Steal, 20*us, 30*us, 2, 5)
	r.Record(QueueLockHeld, 22*us, 23*us, 2, 0)
	r.Record(Fault, 40*us, 40*us, 1, 2)

	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rank != 3 || d.Dropped != 0 {
		t.Fatalf("header = %+v", d)
	}
	// Self-describing: the kind table travels with the records.
	if len(d.Kinds) != int(NumKinds) || d.Kinds[Steal] != catalogue[Steal] || d.Kinds[Fault].Name != "fault" {
		t.Fatalf("kind table = %+v", d.Kinds)
	}
	if len(d.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(d.Records))
	}
	if d.Records[1] != [5]int64{int64(Steal), 20_000, 30_000, 2, 5} {
		t.Fatalf("record 1 = %v", d.Records[1])
	}
	if d.Records[3] != [5]int64{int64(Fault), 40_000, 40_000, 1, 2} {
		t.Fatalf("record 3 = %v", d.Records[3])
	}
}

func TestDumpCarriesDropCount(t *testing.T) {
	r := NewRecorder(1, 3, nil)
	for i := 0; i < 10; i++ {
		r.Record(UserEvent, time.Duration(i), time.Duration(i), 0, 0)
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 3 || d.Dropped != 7 {
		t.Fatalf("records=%d dropped=%d, want 3/7", len(d.Records), d.Dropped)
	}
}

func TestReadDumpRejectsBadRecords(t *testing.T) {
	const kinds = `"kinds":[{"name":"task_exec","prio":1,"cat":"task","args":["",""]}]`
	for name, records := range map[string]string{
		"kind outside the table": `[[1,0,5,0,0]]`,
		"negative kind":          `[[-1,0,5,0,0]]`,
		"ends before it starts":  `[[0,9,3,0,0]]`,
		"starts before the run":  `[[0,-4,3,0,0]]`,
		"ends past any run":      `[[0,0,4611686018427387904,0,0]]`,
		"four words":             `[[0,0,5,0]]`,
		"six words":              `[[0,0,5,0,0,0]]`,
		"empty record":           `[[]]`,
	} {
		in := strings.NewReader(`{"rank":0,` + kinds + `,"records":` + records + `}`)
		if _, err := ReadDump(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A record against a dump with no kind table at all.
	if _, err := ReadDump(strings.NewReader(`{"rank":0,"records":[[0,0,0,0,0]]}`)); err == nil {
		t.Error("record with no kind table: accepted")
	}
	if _, err := ReadDump(strings.NewReader(`{"rank":0,` + kinds + `,"records":[[0,1,5,7,8]]}`)); err != nil {
		t.Errorf("well-formed dump rejected: %v", err)
	}
}

func TestWriteFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	r := NewRecorder(12, 10, nil)
	r.Record(Terminate, 1, 1, 0, 0)
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "trace-rank0012.json" {
		t.Fatalf("path = %s", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rank != 12 || len(d.Records) != 1 {
		t.Fatalf("dump = %+v", d)
	}
}
