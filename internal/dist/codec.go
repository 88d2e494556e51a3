// Package dist distributes PSL snapshots between processes: a compact
// checksummed binary patch codec over psl.DiffLists deltas, an HTTP
// origin serving manifests, patches and full snapshot blobs, and a
// polling replica that applies verified patch chains and hot-swaps the
// result into a serving process.
//
// The paper's §5 harm mechanism is consumers running years-stale lists
// because shipping whole lists to every deployment is costly; dist is
// the cheap, verifiable update channel that removes that excuse. Every
// blob is covered by a SHA-256 trailer, and every patch names the exact
// source and target rule-set fingerprints, so a replica either ends up
// with the byte-exact target version or knows it didn't — it never
// silently serves a divergent list. DESIGN.md §11 documents the wire
// format and verification rules.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/psl"
)

// Blob type tags. Distinct from the PackedMatcher magic ("PSLP") so a
// blob is never confused across codecs.
const (
	patchMagic   = 0x50534c44 // "PSLD": delta patch
	fullMagic    = 0x50534c46 // "PSLF": full snapshot
	codecVersion = 1

	// maxRuleLen bounds one encoded suffix; the longest real PSL rule is
	// well under 100 bytes.
	maxRuleLen = 4096
	// maxRuleCount bounds any rule-list length in a blob, a sanity cap
	// far above the ~10k-rule list.
	maxRuleCount = 1 << 22
)

// ErrCorrupt is wrapped by all decode failures: bad magic, checksum
// mismatch, truncation, trailing junk, or malformed rules.
var ErrCorrupt = errors.New("dist: corrupt blob")

// ErrFingerprint is wrapped when a patch's source fingerprint doesn't
// match the list it is applied to, or a materialised result doesn't
// match the blob's target fingerprint.
var ErrFingerprint = errors.New("dist: fingerprint mismatch")

// Patch is the decoded form of a delta blob: the rule changes taking
// the list at FromSeq (fingerprint FromFP) to the list at ToSeq
// (fingerprint ToFP), plus the target version's metadata.
type Patch struct {
	FromSeq, ToSeq int
	// FromFP and ToFP are hex SHA-256 rule-set fingerprints
	// (psl.List.Fingerprint) pinning the exact source and target.
	FromFP, ToFP string
	// ToVersion and ToDate are stamped onto the applied result so a
	// replica-materialised list is indistinguishable from a locally
	// materialised one.
	ToVersion string
	ToDate    time.Time
	// Removed, Added, and Moved are the delta, in psl.CompareRules
	// order. Moved entries carry the rule's new Section.
	Removed []psl.Rule
	Added   []psl.Rule
	Moved   []psl.Rule
}

// BuildPatch computes the patch taking old (at fromSeq) to new (at
// toSeq), carrying new's metadata.
func BuildPatch(old, new *psl.List, fromSeq, toSeq int) *Patch {
	d := psl.DiffLists(old, new)
	return &Patch{
		FromSeq:   fromSeq,
		ToSeq:     toSeq,
		FromFP:    old.Fingerprint(),
		ToFP:      new.Fingerprint(),
		ToVersion: new.Version,
		ToDate:    new.Date,
		Removed:   d.Removed,
		Added:     d.Added,
		Moved:     d.Moved,
	}
}

// Encode serializes the patch:
//
//	uint32 magic "PSLD" | byte version | uvarint fromSeq | uvarint toSeq
//	| 32B fromFP | 32B toFP | uvarint toDate unix-nanos (0 = unset)
//	| uvarint len + toVersion | rules(removed) | rules(added)
//	| rules(moved) | 32B SHA-256 of everything before it
//
// where rules() is a uvarint count followed by per-rule encodings (one
// kind byte packing wildcard/exception flags and the section, then a
// length-prefixed suffix). All integers are unsigned varints; the two
// fixed-width exceptions are the magic and the digests.
func (p *Patch) Encode() []byte {
	buf := make([]byte, 0, 512)
	buf = binary.BigEndian.AppendUint32(buf, patchMagic)
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(p.FromSeq))
	buf = binary.AppendUvarint(buf, uint64(p.ToSeq))
	buf = appendFP(buf, p.FromFP)
	buf = appendFP(buf, p.ToFP)
	buf = appendTime(buf, p.ToDate)
	buf = binary.AppendUvarint(buf, uint64(len(p.ToVersion)))
	buf = append(buf, p.ToVersion...)
	buf = appendRules(buf, p.Removed)
	buf = appendRules(buf, p.Added)
	buf = appendRules(buf, p.Moved)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// DecodePatch parses and validates a patch blob. The checksum is
// verified first; then every field is bounds-checked and every rule
// round-tripped through psl.ParseRule, so a successful decode implies a
// well-formed patch. Errors wrap ErrCorrupt.
func DecodePatch(data []byte) (*Patch, error) {
	body, err := checkEnvelope(data, patchMagic, "patch")
	if err != nil {
		return nil, err
	}
	d := &decoder{data: body}
	p := &Patch{}
	p.FromSeq = d.seq("from seq")
	p.ToSeq = d.seq("to seq")
	p.FromFP = d.fp("from fingerprint")
	p.ToFP = d.fp("to fingerprint")
	p.ToDate = d.time("to date")
	p.ToVersion = d.str("to version")
	p.Removed = d.rules("removed")
	p.Added = d.rules("added")
	p.Moved = d.rules("moved")
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing junk", fmt.Errorf("%d bytes after last field", len(d.data)-d.off))
	}
	if d.err == nil && p.FromSeq == p.ToSeq {
		d.fail("seq range", fmt.Errorf("from == to == %d", p.FromSeq))
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// Apply materialises the target version from base. The caller may pass
// base's known fingerprint in baseFP to skip recomputing it; pass ""
// to have Apply compute it. Apply verifies base against FromFP before
// touching anything and the result against ToFP before returning it —
// on any mismatch it returns ErrFingerprint and no list. The delta
// applies through psl.List.WithDiff, whose semantics mirror
// history.ListAt: adding an already-present key keeps the original
// rule, removing an absent key is a no-op; such harmless extras change
// nothing and still verify. The result inherits base's canonical order
// by merge, so verifying ToFP hashes it without a sort.
func (p *Patch) Apply(base *psl.List, baseFP string) (*psl.List, error) {
	if baseFP == "" {
		baseFP = base.Fingerprint()
	}
	if baseFP != p.FromFP {
		return nil, fmt.Errorf("%w: base is %.12s…, patch expects %.12s… (seq %d)",
			ErrFingerprint, baseFP, p.FromFP, p.FromSeq)
	}
	l := base.WithDiff(psl.Diff{Removed: p.Removed, Added: p.Added, Moved: p.Moved})
	l.Date = p.ToDate
	l.Version = p.ToVersion
	if got := l.Fingerprint(); got != p.ToFP {
		return nil, fmt.Errorf("%w: applied result is %.12s…, patch promises %.12s… (seq %d)",
			ErrFingerprint, got, p.ToFP, p.ToSeq)
	}
	return l, nil
}

// Full is the decoded form of a full snapshot blob: one complete list
// version with its metadata and fingerprint.
type Full struct {
	Seq     int
	FP      string
	Version string
	Date    time.Time
	Rules   []psl.Rule
}

// EncodeFull serializes the complete list at seq:
//
//	uint32 magic "PSLF" | byte version | uvarint seq | 32B fingerprint
//	| uvarint date unix-nanos | uvarint len + version string
//	| rules(all) | 32B SHA-256 trailer
//
// Rules are encoded in psl.CompareRules order, so the blob for a
// version is byte-identical however its list was materialised —
// replayed from history or rebuilt by applying patches.
func EncodeFull(l *psl.List, seq int) []byte {
	rules := l.Rules()
	buf := make([]byte, 0, 64+32*len(rules))
	buf = binary.BigEndian.AppendUint32(buf, fullMagic)
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(seq))
	buf = appendFP(buf, l.Fingerprint())
	buf = appendTime(buf, l.Date)
	buf = binary.AppendUvarint(buf, uint64(len(l.Version)))
	buf = append(buf, l.Version...)
	buf = appendRules(buf, rules)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// DecodeFull parses and validates a full snapshot blob. Errors wrap
// ErrCorrupt.
func DecodeFull(data []byte) (*Full, error) {
	body, err := checkEnvelope(data, fullMagic, "full")
	if err != nil {
		return nil, err
	}
	d := &decoder{data: body}
	f := &Full{}
	f.Seq = d.seq("seq")
	f.FP = d.fp("fingerprint")
	f.Date = d.time("date")
	f.Version = d.str("version")
	f.Rules = d.rules("rules")
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing junk", fmt.Errorf("%d bytes after last field", len(d.data)-d.off))
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// List materialises the snapshot and verifies it against the blob's
// fingerprint. EncodeFull writes rules in strictly ascending
// psl.CompareRules order, and List adopts that order as the list's
// canonical one only after checking it, so a list bootstrapped from a
// blob, and every list derived from it by patches, never sorts. Rules
// out of order or repeating a key return ErrCorrupt; a rule set that
// does not hash to the header's fingerprint returns ErrFingerprint.
func (f *Full) List() (*psl.List, error) {
	l, err := psl.NewSortedList(f.Rules)
	if err != nil {
		return nil, fmt.Errorf("%w: full blob of seq %d: %v", ErrCorrupt, f.Seq, err)
	}
	l.Date = f.Date
	l.Version = f.Version
	if got := l.Fingerprint(); got != f.FP {
		return nil, fmt.Errorf("%w: full blob materialises to %.12s…, header promises %.12s… (seq %d)",
			ErrFingerprint, got, f.FP, f.Seq)
	}
	return l, nil
}

// checkEnvelope validates a blob's fixed frame — minimum length, magic,
// codec version, and the SHA-256 trailer — and returns the field bytes
// between the version byte and the trailer.
func checkEnvelope(data []byte, magic uint32, kind string) ([]byte, error) {
	const frame = 4 + 1 + sha256.Size
	if len(data) < frame {
		return nil, fmt.Errorf("%w: %s blob is %d bytes, frame alone needs %d", ErrCorrupt, kind, len(data), frame)
	}
	if got := binary.BigEndian.Uint32(data); got != magic {
		return nil, fmt.Errorf("%w: %s magic %#08x, want %#08x", ErrCorrupt, kind, got, magic)
	}
	if data[4] != codecVersion {
		return nil, fmt.Errorf("%w: %s codec version %d, want %d", ErrCorrupt, kind, data[4], codecVersion)
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, kind)
	}
	return payload[5:], nil
}

// appendFP appends a hex fingerprint as 32 raw bytes. Fingerprints come
// from psl.List.Fingerprint; anything else is a programming error.
func appendFP(buf []byte, fp string) []byte {
	raw, err := hex.DecodeString(fp)
	if err != nil || len(raw) != sha256.Size {
		panic(fmt.Sprintf("dist: invalid fingerprint %q", fp))
	}
	return append(buf, raw...)
}

// appendTime encodes Unix nanoseconds (0 = unset) so an applied list's
// Date is identical, not just close, to the locally materialised one.
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendUvarint(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(t.UnixNano()))
}

func appendRules(buf []byte, rules []psl.Rule) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rules)))
	for _, r := range rules {
		buf = append(buf, ruleKind(r))
		buf = binary.AppendUvarint(buf, uint64(len(r.Suffix)))
		buf = append(buf, r.Suffix...)
	}
	return buf
}

// ruleKind packs a rule's flags and section into one byte: bit 0
// wildcard, bit 1 exception, bits 2-3 section.
func ruleKind(r psl.Rule) byte {
	var k byte
	if r.Wildcard {
		k |= 1
	}
	if r.Exception {
		k |= 2
	}
	k |= byte(r.Section) << 2
	return k
}

// encodedRuleSize is the exact byte cost appendRules pays for one rule;
// the chain statistics use it to price full blobs without building them.
func encodedRuleSize(r psl.Rule) int {
	return 1 + uvarintLen(uint64(len(r.Suffix))) + len(r.Suffix)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decoder walks a blob's field bytes, accumulating the first error.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(what string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(what, errors.New("bad uvarint"))
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail(what, fmt.Errorf("need %d bytes, have %d", n, len(d.data)-d.off))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) seq(what string) int {
	v := d.uvarint(what)
	if d.err == nil && v > 1<<31 {
		d.fail(what, fmt.Errorf("sequence %d out of range", v))
		return 0
	}
	return int(v)
}

func (d *decoder) fp(what string) string {
	return hex.EncodeToString(d.take(sha256.Size, what))
}

func (d *decoder) time(what string) time.Time {
	v := d.uvarint(what)
	if d.err != nil || v == 0 {
		return time.Time{}
	}
	if v > 1<<63-1 {
		d.fail(what, fmt.Errorf("timestamp %d out of range", v))
		return time.Time{}
	}
	return time.Unix(0, int64(v)).UTC()
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err == nil && n > 1024 {
		d.fail(what, fmt.Errorf("string length %d out of range", n))
		return ""
	}
	return string(d.take(int(n), what))
}

func (d *decoder) rules(what string) []psl.Rule {
	n := d.uvarint(what + " count")
	if d.err != nil {
		return nil
	}
	if n > maxRuleCount {
		d.fail(what, fmt.Errorf("rule count %d out of range", n))
		return nil
	}
	rules := make([]psl.Rule, 0, min(int(n), 16384))
	for i := 0; i < int(n); i++ {
		r, ok := d.rule(fmt.Sprintf("%s[%d]", what, i))
		if !ok {
			return nil
		}
		rules = append(rules, r)
	}
	return rules
}

// rule decodes one rule and validates it by round-tripping through
// psl.ParseRule: the decoded rule must be exactly what the parser
// produces for its own rendering, so no malformed or non-canonical rule
// (bad flags byte, interior wildcard, un-normalized suffix, "!*."
// combination) survives decoding.
func (d *decoder) rule(what string) (psl.Rule, bool) {
	kindB := d.take(1, what+" kind")
	if d.err != nil {
		return psl.Rule{}, false
	}
	kind := kindB[0]
	if kind>>4 != 0 {
		d.fail(what, fmt.Errorf("kind byte %#x has reserved bits set", kind))
		return psl.Rule{}, false
	}
	n := d.uvarint(what + " suffix length")
	if d.err == nil && n > maxRuleLen {
		d.fail(what, fmt.Errorf("suffix length %d out of range", n))
	}
	suffix := d.take(int(n), what+" suffix")
	if d.err != nil {
		return psl.Rule{}, false
	}
	r := psl.Rule{
		Suffix:    string(suffix),
		Wildcard:  kind&1 != 0,
		Exception: kind&2 != 0,
		Section:   psl.Section(kind >> 2),
	}
	if r.Section > psl.SectionPrivate {
		d.fail(what, fmt.Errorf("unknown section %d", r.Section))
		return psl.Rule{}, false
	}
	canon, err := psl.ParseRule(r.String(), r.Section)
	if err != nil || canon != r {
		d.fail(what, fmt.Errorf("rule %q is not canonical (%v)", r.String(), err))
		return psl.Rule{}, false
	}
	return r, true
}
