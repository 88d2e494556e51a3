package httparchive

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := testSnapshot.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Hosts) != len(testSnapshot.Hosts) || len(back.Pairs) != len(testSnapshot.Pairs) {
		t.Fatalf("roundtrip sizes differ: %d/%d vs %d/%d",
			len(back.Hosts), len(back.Pairs), len(testSnapshot.Hosts), len(testSnapshot.Pairs))
	}
	if back.Requests != testSnapshot.Requests {
		t.Error("request count differs")
	}
	if !back.Date.Equal(testSnapshot.Date) {
		t.Errorf("date differs: %v vs %v", back.Date, testSnapshot.Date)
	}
	for i := range back.Hosts {
		if back.Hosts[i] != testSnapshot.Hosts[i] {
			t.Fatalf("host %d differs", i)
		}
	}
	for i := range back.Pairs {
		if back.Pairs[i] != testSnapshot.Pairs[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
}

// roundtrip writes a snapshot and reads it back.
func roundtrip(s *Snapshot) (*Snapshot, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return ReadSnapshot(&buf)
}

func TestReadSnapshotRejectsNonCanonicalHost(t *testing.T) {
	for _, h := range []string{"Shop.Example.com", "b\u00fccher.example", "", "192.0.2.1", "a..b"} {
		s := &Snapshot{Hosts: []string{"a.example.com", h}, Date: SnapshotDate}
		if _, err := roundtrip(s); err == nil || !strings.Contains(err.Error(), "not canonical") {
			t.Errorf("host %q: err = %v, want a not-canonical rejection", h, err)
		}
	}
}

func TestReadSnapshotRejectsOutOfRangePair(t *testing.T) {
	hosts := []string{"a.example.com", "b.example.net"}
	for _, p := range []Pair{{Page: 0, Req: 2, Count: 1}, {Page: -1, Req: 1, Count: 1}} {
		s := &Snapshot{Hosts: hosts, Pairs: []Pair{{Page: 0, Req: 1, Count: 1}, p}, Date: SnapshotDate}
		if _, err := roundtrip(s); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("pair %+v: err = %v, want an out-of-range rejection", p, err)
		}
	}
}
