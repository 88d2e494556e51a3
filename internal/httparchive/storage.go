package httparchive

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/psl"
)

// snapshotMagic versions the on-disk format.
const snapshotMagic = "pslharm-snapshot-v1"

// snapshotFile is the gob-encoded representation.
type snapshotFile struct {
	Magic    string
	Hosts    []string
	Pairs    []Pair
	Requests int64
	DateUnix int64
}

// WriteTo serialises the snapshot. The format is gob with a magic
// header, suitable for caching a generated corpus between runs.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	enc := gob.NewEncoder(cw)
	err := enc.Encode(snapshotFile{
		Magic:    snapshotMagic,
		Hosts:    s.Hosts,
		Pairs:    s.Pairs,
		Requests: s.Requests,
		DateUnix: s.Date.Unix(),
	})
	if err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadSnapshot deserialises a snapshot written by WriteTo. It rejects a
// snapshot with a host that is not canonical (psl.Normalize would change
// or refuse it) or a pair that indexes past the host table, since the
// measurement pipeline matches hosts as stored and indexes hosts by
// pair.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var f snapshotFile
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&f); err != nil {
		return nil, fmt.Errorf("httparchive: decoding snapshot: %w", err)
	}
	if f.Magic != snapshotMagic {
		return nil, fmt.Errorf("httparchive: bad snapshot magic %q", f.Magic)
	}
	for i, h := range f.Hosts {
		if ascii, err := psl.Normalize(h); err != nil || ascii != h {
			return nil, fmt.Errorf("httparchive: host %d %q is not canonical", i, h)
		}
	}
	n := int32(len(f.Hosts))
	for i, p := range f.Pairs {
		if p.Page < 0 || p.Page >= n || p.Req < 0 || p.Req >= n {
			return nil, fmt.Errorf("httparchive: pair %d (page %d, req %d) out of range for %d hosts", i, p.Page, p.Req, n)
		}
	}
	s := &Snapshot{
		Hosts:    f.Hosts,
		Pairs:    f.Pairs,
		Requests: f.Requests,
		Date:     SnapshotDate,
	}
	if f.DateUnix != 0 {
		s.Date = time.Unix(f.DateUnix, 0).UTC()
	}
	return s, nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
