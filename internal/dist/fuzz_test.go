package dist

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/psl"
)

// fuzzBase is the fixed source list every fuzzed patch is applied to.
func fuzzBase() *psl.List {
	return psl.MustParse(`
// ===BEGIN ICANN DOMAINS===
com
net
org
co.uk
ac.uk
*.ck
!www.ck
jp
tokyo.jp
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
s3.amazonaws.com
// ===END PRIVATE DOMAINS===
`)
}

// mutateList derives a deterministic variant of base from raw fuzz
// bytes: each byte drives one edit (remove an existing rule, add a
// synthetic one, or move a rule's section).
func mutateList(base *psl.List, data []byte) *psl.List {
	rules := append([]psl.Rule(nil), base.Rules()...)
	for i, b := range data {
		if len(data) > 64 {
			break
		}
		switch b % 3 {
		case 0: // remove
			if len(rules) > 1 {
				rules = append(rules[:int(b)%len(rules)], rules[int(b)%len(rules)+1:]...)
			}
		case 1: // add
			r, err := psl.ParseRule(fmt.Sprintf("fuzz%d-%d.example", i, b), psl.SectionPrivate)
			if err == nil {
				rules = append(rules, r)
			}
		case 2: // move section
			j := int(b) % len(rules)
			if rules[j].Section == psl.SectionICANN {
				rules[j].Section = psl.SectionPrivate
			} else {
				rules[j].Section = psl.SectionICANN
			}
		}
	}
	return psl.NewList(rules)
}

// FuzzPatchRoundTrip drives the codec's core safety contract from two
// directions. (1) Constructive: derive a mutated target list from the
// fuzz input, build the patch, and require a byte-exact round trip
// through encode→decode→apply. (2) Adversarial: treat the raw input as
// a wire blob; if it decodes at all, applying it must either error or
// hit the promised target fingerprint exactly — mirroring the
// PackedMatcher corrupt-blob discipline, a decoded patch never silently
// produces a divergent list.
func FuzzPatchRoundTrip(f *testing.F) {
	base := fuzzBase()
	// Seed with valid blobs (so mutation explores near-valid space) and
	// structured edit scripts.
	target := mutateList(base, []byte{0, 1, 2, 3, 4, 5})
	f.Add(BuildPatch(base, target, 0, 1).Encode())
	f.Add(BuildPatch(base, base.Clone(), 3, 9).Encode())
	f.Add(EncodeFull(base, 0))
	f.Add([]byte{0x50, 0x53, 0x4c, 0x44, 1})
	f.Add([]byte("not a blob at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Constructive direction.
		target := mutateList(base, data)
		p := BuildPatch(base, target, 1, 2)
		dec, err := DecodePatch(p.Encode())
		if err != nil {
			t.Fatalf("decode of freshly encoded patch failed: %v", err)
		}
		applied, err := dec.Apply(base, "")
		if err != nil {
			t.Fatalf("apply of valid patch failed: %v", err)
		}
		if applied.Serialize() != target.Serialize() {
			t.Fatalf("round trip diverged:\n%s\nvs\n%s", applied.Serialize(), target.Serialize())
		}
		if applied.Fingerprint() != dec.ToFP {
			t.Fatalf("applied fingerprint %s != promised %s", applied.Fingerprint(), dec.ToFP)
		}

		// Adversarial direction: the input as a hostile blob.
		hp, err := DecodePatch(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// It decoded (checksum valid — in practice only real blobs).
		res, err := hp.Apply(base, "")
		if err != nil {
			if !errors.Is(err, ErrFingerprint) {
				t.Fatalf("apply error is neither success nor ErrFingerprint: %v", err)
			}
			return
		}
		if got := res.Fingerprint(); got != hp.ToFP {
			t.Fatalf("decoded patch applied to %s, promised %s — silent divergence", got, hp.ToFP)
		}
	})
}

// FuzzFullRoundTrip is the same contract for full snapshot blobs.
func FuzzFullRoundTrip(f *testing.F) {
	base := fuzzBase()
	f.Add(EncodeFull(base, 5))
	f.Add(BuildPatch(base, mutateList(base, []byte{9, 8, 7}), 0, 1).Encode())
	f.Add([]byte{0x50, 0x53, 0x4c, 0x46, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		target := mutateList(base, data)
		target.Version = "vfuzz"
		blob := EncodeFull(target, 3)
		fl, err := DecodeFull(blob)
		if err != nil {
			t.Fatalf("decode of freshly encoded full failed: %v", err)
		}
		l, err := fl.List()
		if err != nil {
			t.Fatalf("materialise of valid full failed: %v", err)
		}
		if l.Serialize() != target.Serialize() {
			t.Fatalf("full round trip diverged")
		}

		hf, err := DecodeFull(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		l, err = hf.List()
		if err != nil {
			if !errors.Is(err, ErrFingerprint) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("List error is neither success, ErrCorrupt nor ErrFingerprint: %v", err)
			}
			return
		}
		if got := l.Fingerprint(); got != hf.FP {
			t.Fatalf("decoded full materialised %s, promised %s", got, hf.FP)
		}
	})
}

// FuzzMatcherBlob drives the compiled-matcher blob chain with a
// corrupt-blob seed corpus mirroring the psl.ErrBadBlob validation
// cases: tampered packed headers (magic, version, counts), truncation,
// bit flips in every region, and a valid matcher wrapped with the wrong
// fingerprint. The contract is absolute: UnpackMatcherBlob never
// panics, and anything it accepts IS the matcher for the promised
// fingerprint — behaviourally checked against a compiled oracle.
func FuzzMatcherBlob(f *testing.F) {
	base := fuzzBase()
	fp := base.Fingerprint()
	packed := psl.NewPackedMatcher(base).Marshal()
	valid := EncodeMatcherBlob(3, fp, packed)
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // truncated through the trailer
	f.Add(valid[:40])           // truncated mid-header

	// Corrupt packed regions re-wrapped in fresh (checksummed!)
	// envelopes, so the fuzzer starts past the checksum and exercises
	// the structural validator — the same cases the psl ErrBadBlob
	// tests pin.
	mutate := func(off int, val byte) []byte {
		p := append([]byte(nil), packed...)
		p[off] = val
		return EncodeMatcherBlob(3, fp, p)
	}
	f.Add(mutate(0, 'X'))                        // packed magic
	f.Add(mutate(4, 99))                         // packed version
	f.Add(mutate(8, 0xff))                       // rule count
	f.Add(mutate(12, 0x07))                      // capacity not a power of two
	f.Add(mutate(16, 0xff))                      // node count vs occupied slots
	f.Add(mutate(20, 0xff))                      // arena length vs blob size
	f.Add(mutate(len(packed)/2, 0xAA))           // table bits
	f.Add(mutate(len(packed)-1, 0x00))           // arena bytes
	f.Add(EncodeMatcherBlob(3, fp, packed[:50])) // truncated packed
	f.Add(EncodeMatcherBlob(3, fp, nil))         // empty packed
	f.Add(EncodeMatcherBlob(9, fp, packed))      // seq mismatch
	f.Add(EncodeFull(base, 3))                   // wrong envelope kind
	wrongRules := psl.MustParse("example\nfoo.example\n")
	f.Add(EncodeMatcherBlob(3, fp, psl.NewPackedMatcher(wrongRules).Marshal())) // valid matcher, wrong rules

	oracle := psl.NewPackedMatcher(base)
	hosts := []string{"a.b.com", "x.co.uk", "deep.ac.uk", "any.ck", "www.ck", "u.github.io", "unlisted.zone"}
	f.Fuzz(func(t *testing.T, data []byte) {
		pm, err := UnpackMatcherBlob(data, 3, fp)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFingerprint) && !errors.Is(err, psl.ErrBadBlob) {
				t.Fatalf("unpack error is untyped: %v", err)
			}
			return
		}
		// Accepted: it must BE the promised matcher, not merely claim to.
		if got := pm.RulesFingerprint(); got != fp {
			t.Fatalf("accepted blob digests to %s, promised %s", got, fp)
		}
		for _, h := range hosts {
			if got, want := pm.Match(h), oracle.Match(h); got != want {
				t.Fatalf("accepted blob diverges on %q: %+v vs %+v", h, got, want)
			}
		}
	})
}

// FuzzManifestRoundTrip is the manifest codec's contract, from both
// directions. (1) Constructive: derive a valid manifest from the fuzz
// bytes and require an exact encode→decode round trip. (2) Adversarial:
// treat the raw input as a wire manifest; DecodeManifest must either
// reject it with ErrCorrupt or hand back a manifest that re-validates —
// a replica never acts on a head advertisement with an out-of-range
// seq, a malformed fingerprint, or an incoherent retention window.
func FuzzManifestRoundTrip(f *testing.F) {
	base := fuzzBase()
	valid := Manifest{
		Seq:         41,
		Fingerprint: base.Fingerprint(),
		Version:     "v41",
		Date:        time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC),
		Rules:       base.Len(),
		MinSeq:      7,
		Depth:       2,
	}
	blob := EncodeManifest(valid)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])   // truncated mid-object
	f.Add([]byte(`{}`))         // all fields missing
	f.Add([]byte(`{"seq":-1}`)) // negative head
	f.Add([]byte(`{"seq":1,"fingerprint":"short"}`))
	f.Add([]byte(`{"seq":1,"fingerprint":"` + strings.ToUpper(base.Fingerprint()) + `"}`)) // uppercase hex
	f.Add([]byte(`{"seq":3,"min_seq":9,"fingerprint":"` + base.Fingerprint() + `"}`))      // window above head
	f.Add([]byte(`{"seq":1,"depth":9999,"fingerprint":"` + base.Fingerprint() + `"}`))     // absurd depth
	f.Add([]byte("not json"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Constructive: fuzz bytes drive the field values, clamped into
		// validity; the round trip must be exact.
		m := valid
		for i, b := range data {
			if i > 8 {
				break
			}
			switch i % 4 {
			case 0:
				m.Seq = int(b) * 7
			case 1:
				m.MinSeq = int(b) % (m.Seq + 1)
			case 2:
				m.Depth = int(b) % (maxDepth + 1)
			case 3:
				m.Rules = int(b) * 11
			}
		}
		if m.MinSeq > m.Seq {
			m.MinSeq = m.Seq
		}
		got, err := DecodeManifest(EncodeManifest(m))
		if err != nil {
			t.Fatalf("decode of freshly encoded manifest failed: %v", err)
		}
		if !got.Date.Equal(m.Date) {
			t.Fatalf("date diverged: %v vs %v", got.Date, m.Date)
		}
		got.Date, m.Date = time.Time{}, time.Time{} // Equal above; == below needs identical locations
		if got != m {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", got, m)
		}

		// Adversarial: the input as a hostile wire manifest.
		hm, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if err := hm.Validate(); err != nil {
			t.Fatalf("DecodeManifest returned an invalid manifest: %v", err)
		}
	})
}
