package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"slices"
)

// decodeSubmit decodes a submit request body. encoding/json is the
// definition of the API; a body inside the plain subset submitScan reads —
// ASCII strings without escapes, each known key at most once, integers
// without fraction or exponent, standard padded base64 — is decoded in one
// pass without reflection, and every other body goes to json.Unmarshal on
// the same bytes (FuzzDecodeSubmit holds the two to the same result).
// Nothing in req aliases body, so the caller may reuse it. maxTasks only
// sizes the first allocation of req.Tasks: a body cannot make the decoder
// reserve room for more tasks than a submission may hold.
func decodeSubmit(body []byte, maxTasks int, req *submitReq) error {
	s := submitScan{b: body, maxTasks: maxTasks}
	if s.submit(req) {
		return nil
	}
	*req = submitReq{}
	return json.Unmarshal(body, req)
}

// submitScan reads the plain subset of the submit schema. A method that
// meets anything outside it reports false, and the whole decode goes to
// the fallback.
type submitScan struct {
	b        []byte
	i        int
	maxTasks int
}

func (s *submitScan) submit(req *submitReq) bool {
	ok := s.object([]string{"tenant", "tasks"}, func(key string) bool {
		if key == "tenant" {
			v, ok := s.str()
			req.Tenant = string(v)
			return ok
		}
		// Each task is an object: there are no more tasks than '{' left.
		req.Tasks = make([]taskSpec, 0, min(bytes.Count(s.b[s.i:], []byte{'{'}), s.maxTasks))
		return s.list('[', ']', func() bool {
			req.Tasks = append(req.Tasks, taskSpec{})
			return s.task(&req.Tasks[len(req.Tasks)-1])
		})
	})
	s.space()
	return ok && s.i == len(s.b) // a body is one JSON document
}

func (s *submitScan) task(ts *taskSpec) bool {
	return s.object([]string{"kind", "arg", "payload", "affinity", "deps"}, func(key string) bool {
		switch key {
		case "kind":
			v, ok := s.str()
			ts.Kind = kindString(v)
			return ok
		case "arg":
			s.space()
			n, ok := s.digits()
			ts.Arg = n
			return ok
		case "payload":
			v, ok := s.str()
			p, err := base64.StdEncoding.AppendDecode([]byte{}, v) // "" decodes to empty, not nil
			ts.Payload = p
			return ok && err == nil
		case "affinity":
			n, ok := s.int(math.MinInt32, math.MaxInt32)
			a := int32(n)
			ts.Affinity = &a
			return ok
		}
		ts.Deps = []int{}
		return s.list('[', ']', func() bool {
			n, ok := s.int(math.MinInt, math.MaxInt)
			ts.Deps = append(ts.Deps, int(n))
			return ok
		})
	})
}

// object reads an object whose keys are among keys, each at most once,
// handing member the key it found to read the value.
func (s *submitScan) object(keys []string, member func(key string) bool) bool {
	var seen uint
	return s.list('{', '}', func() bool {
		k, ok := s.str()
		i := slices.Index(keys, string(k))
		if !ok || i < 0 || seen&(1<<i) != 0 || !s.eat(':') {
			return false
		}
		seen |= 1 << i
		return member(keys[i])
	})
}

// list reads an array's elements or an object's members, between open and
// close, calling elem to read each.
func (s *submitScan) list(open, close byte, elem func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for elem() {
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			break
		}
	}
	return false
}

// str reads a string of printable ASCII without escapes. The bytes it
// returns alias the body.
func (s *submitScan) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// int reads an integer in [lo, hi]: optional minus, no leading zero, no
// fraction or exponent. -0 is left to the fallback.
func (s *submitScan) int(lo, hi int64) (int64, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	n, ok := s.digits()
	if neg { // the magnitude may be -lo, which overflows an int64 when lo is its minimum
		return -int64(n), ok && n != 0 && n-1 <= uint64(-(lo+1))
	}
	return int64(n), ok && n <= uint64(hi)
}

// digits reads an unsigned integer that fits a uint64, with no leading
// zero.
func (s *submitScan) digits() (uint64, bool) {
	start := s.i
	var n uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, s.i > start && (s.b[start] != '0' || s.i == start+1)
}

// eat skips whitespace and consumes c if it comes next.
func (s *submitScan) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *submitScan) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}
