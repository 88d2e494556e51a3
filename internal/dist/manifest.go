package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// maxDepth bounds the advertised relay depth; real deployments are a
// handful of tiers, so anything larger is a loop or a lie.
const maxDepth = 255

// EncodeManifest renders a manifest as its JSON wire form. The manifest
// must be valid; encoding an invalid manifest is a programming error
// (origins and relays only ever publish verified state).
func EncodeManifest(m Manifest) []byte {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("dist: encoding invalid manifest: %v", err))
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("dist: manifest marshal: %v", err))
	}
	return b
}

// DecodeManifest parses and validates a manifest blob. Replicas route
// every manifest response through this, so a lying or corrupted upstream
// surfaces as an explicit decode error instead of propagating a bogus
// head into the sync loop. Decoding is strict: an unknown key (a damaged
// "seq" reads as one), a missing seq, or trailing bytes are corrupt, so
// a flipped key can never decode as a zero field. Errors wrap
// ErrCorrupt, mirroring the patch and full codecs.
func DecodeManifest(data []byte) (Manifest, error) {
	// The outer Seq shadows the embedded one, so a manifest without its
	// seq key is told apart from one advertising head 0.
	var wire struct {
		Manifest
		Seq *int `json:"seq"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Manifest{}, fmt.Errorf("%w: manifest: trailing data", ErrCorrupt)
	}
	if wire.Seq == nil {
		return Manifest{}, fmt.Errorf("%w: manifest: no seq", ErrCorrupt)
	}
	m := wire.Manifest
	m.Seq = *wire.Seq
	if err := m.Validate(); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	return m, nil
}

// Validate checks every field's bounds: the sequence range, the
// fingerprint shape, the retention window, and the metadata sizes. A
// manifest that passes is safe to act on — its head names a plausible
// version pinned by a well-formed fingerprint, and its min_seq window is
// coherent.
func (m Manifest) Validate() error {
	if m.Seq < 0 || m.Seq > 1<<31 {
		return fmt.Errorf("head seq %d out of range", m.Seq)
	}
	if err := validateFP(m.Fingerprint); err != nil {
		return fmt.Errorf("fingerprint: %v", err)
	}
	if m.MinSeq < 0 || m.MinSeq > m.Seq {
		return fmt.Errorf("min_seq %d outside [0, %d]", m.MinSeq, m.Seq)
	}
	if m.Rules < 0 || m.Rules > maxRuleCount {
		return fmt.Errorf("rule count %d out of range", m.Rules)
	}
	if len(m.Version) > 1024 {
		return fmt.Errorf("version string is %d bytes", len(m.Version))
	}
	if m.Depth < 0 || m.Depth > maxDepth {
		return fmt.Errorf("depth %d out of range [0, %d]", m.Depth, maxDepth)
	}
	if !m.Date.IsZero() && (m.Date.Year() < 1970 || m.Date.Year() > 9999) {
		return fmt.Errorf("date %v out of range", m.Date)
	}
	if !m.PublishedAt.IsZero() && (m.PublishedAt.Year() < 1970 || m.PublishedAt.Year() > 9999) {
		return fmt.Errorf("published_at %v out of range", m.PublishedAt)
	}
	return nil
}

// validateFP checks a hex SHA-256 rule-set fingerprint: exactly 64
// lowercase hex digits, the form psl.List.Fingerprint produces.
func validateFP(fp string) error {
	if len(fp) != 64 {
		return fmt.Errorf("length %d, want 64", len(fp))
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("byte %d is %q, want lowercase hex", i, c)
		}
	}
	return nil
}
