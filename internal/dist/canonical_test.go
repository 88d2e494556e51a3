package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/psl"
)

// Sort-based oracles: the codec as it was before lists held only their
// canonical order, copying and sorting the rules.

func oracleSorted(l *psl.List) []psl.Rule {
	rules := append([]psl.Rule(nil), l.Rules()...)
	sort.Slice(rules, func(i, j int) bool { return psl.CompareRules(rules[i], rules[j]) < 0 })
	return rules
}

func oracleEncodeFull(l *psl.List, seq int) []byte {
	rules := oracleSorted(l)
	return encodeFullRaw(seq, psl.FingerprintOfSorted(rules), l.Date, l.Version, rules)
}

// encodeFullRaw lays out a full blob around rules exactly as given, so
// a test can checksum a blob whose rules are not canonical.
func encodeFullRaw(seq int, fp string, date time.Time, version string, rules []psl.Rule) []byte {
	buf := binary.BigEndian.AppendUint32(nil, fullMagic)
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(seq))
	buf = appendFP(buf, fp)
	buf = appendTime(buf, date)
	buf = binary.AppendUvarint(buf, uint64(len(version)))
	buf = append(buf, version...)
	buf = appendRules(buf, rules)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// oracleApply is Patch.Apply as a map-based splice with a sorting
// fingerprint check.
func oracleApply(p *Patch, base *psl.List) *psl.List {
	drop := make(map[string]bool)
	for _, r := range p.Removed {
		drop[r.String()] = true
	}
	move := make(map[string]psl.Section)
	for _, r := range p.Moved {
		move[r.String()] = r.Section
	}
	var rules []psl.Rule
	for _, r := range base.Rules() {
		if drop[r.String()] {
			continue
		}
		if sec, ok := move[r.String()]; ok {
			r.Section = sec
		}
		rules = append(rules, r)
	}
	l := psl.NewList(append(rules, p.Added...))
	l.Date, l.Version = p.ToDate, p.ToVersion
	return l
}

// checkAgainstOracle compares l's rules, which fix its compiled
// matcher, and every canonical output with the oracle's for want.
func checkAgainstOracle(t *testing.T, what string, l, want *psl.List, seq int) {
	t.Helper()
	if !slices.Equal(l.Rules(), want.Rules()) {
		t.Fatalf("%s: rules differ", what)
	}
	if l.Serialize() != want.Serialize() {
		t.Fatalf("%s: Serialize differs", what)
	}
	if got, w := l.Fingerprint(), psl.FingerprintOfSorted(oracleSorted(want)); got != w {
		t.Fatalf("%s: Fingerprint %s, oracle %s", what, got, w)
	}
	if !bytes.Equal(EncodeFull(l, seq), oracleEncodeFull(want, seq)) {
		t.Fatalf("%s: EncodeFull bytes differ from the sort oracle", what)
	}
}

func checkMatcherBlob(t *testing.T, l, want *psl.List) {
	t.Helper()
	if !bytes.Equal(psl.NewPackedMatcher(l).Marshal(), psl.NewPackedMatcher(want).Marshal()) {
		t.Fatal("matcher blob bytes differ")
	}
}

// TestCodecMatchesSortOracleOnGeneratedHead: on the generated head and
// on random variants of it, EncodeFull and patch bytes equal the sort
// oracle's, and a patch applied to a blob-bootstrapped base yields the
// same list, rule order included, as the map-based apply.
func TestCodecMatchesSortOracleOnGeneratedHead(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	seq := h.Len() - 1
	head := h.ListAt(seq)
	if !bytes.Equal(EncodeFull(head, seq), oracleEncodeFull(head, seq)) {
		t.Fatal("EncodeFull of the generated head differs from the sort oracle")
	}
	f, err := DecodeFull(EncodeFull(head, seq))
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rules := head.Rules()
	for i := 0; i < 8; i++ {
		var d psl.Diff
		for k := 0; k < 1+rng.Intn(6); k++ {
			r := rules[rng.Intn(len(rules))]
			switch rng.Intn(3) {
			case 0:
				d.Removed = append(d.Removed, r)
			case 1:
				r.Section = psl.SectionICANN + psl.SectionPrivate - r.Section
				d.Moved = append(d.Moved, r)
			default:
				d.Added = append(d.Added, psl.Rule{Suffix: "oracle" + string(rune('a'+k)) + "." + r.Suffix, Section: psl.SectionPrivate})
			}
		}
		next := head.WithDiff(d)
		next.Version = "vnext"
		p := BuildPatch(head, next, seq, seq+1)
		oracleP := *p
		oracleP.FromFP = psl.FingerprintOfSorted(oracleSorted(head))
		oracleP.ToFP = psl.FingerprintOfSorted(oracleSorted(next))
		if !bytes.Equal(p.Encode(), oracleP.Encode()) {
			t.Fatalf("variant %d: patch bytes differ from the sort oracle", i)
		}
		applied, err := p.Apply(base, f.FP)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		want := oracleApply(p, base)
		checkAgainstOracle(t, "applied", applied, want, seq+1)
		if i == 0 {
			checkMatcherBlob(t, applied, want)
		}
	}
}

// TestCodecMatchesSortOracleOnRandomLists: EncodeFull and patch bytes
// equal the sort oracle's on random variants of a small list, whose
// rules arrive in no particular order.
func TestCodecMatchesSortOracleOnRandomLists(t *testing.T) {
	base := fuzzBase()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		edits := make([]byte, rng.Intn(24))
		rng.Read(edits)
		old := mutateList(base, edits[:len(edits)/2])
		next := mutateList(base, edits)
		next.Version, next.Date = "vrand", time.Unix(int64(1_600_000_000+i), 0)
		if !bytes.Equal(EncodeFull(next, i), oracleEncodeFull(next, i)) {
			t.Fatalf("list %d: EncodeFull bytes differ from the sort oracle", i)
		}
		p := BuildPatch(old, next, i, i+1)
		oracleP := *p
		oracleP.FromFP = psl.FingerprintOfSorted(oracleSorted(old))
		oracleP.ToFP = psl.FingerprintOfSorted(oracleSorted(next))
		if !bytes.Equal(p.Encode(), oracleP.Encode()) {
			t.Fatalf("list %d: patch bytes differ from the sort oracle", i)
		}
		applied, err := p.Apply(old, "")
		if err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		checkAgainstOracle(t, "random", applied, oracleApply(p, old), i+1)
	}
}

// TestReplicaChainMatchesSortOracle follows a history hop by hop from a
// blob bootstrap, as an edge does, and checks each version against the
// map-based apply and the replayed list.
func TestReplicaChainMatchesSortOracle(t *testing.T) {
	h := history.Generate(history.Config{Versions: 60})
	c := NewChain(h)
	f, err := DecodeFull(EncodeFull(h.ListAt(0), 0))
	if err != nil {
		t.Fatal(err)
	}
	l, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	oracle := l
	for seq := 1; seq < h.Len(); seq++ {
		p, err := DecodePatch(c.Patch(seq-1, seq).Encode())
		if err != nil {
			t.Fatal(err)
		}
		if l, err = p.Apply(l, ""); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		oracle = oracleApply(p, oracle)
		checkAgainstOracle(t, "hop", l, oracle, seq)
		if l.Fingerprint() != c.Fingerprint(seq) {
			t.Fatalf("seq %d: applied list differs from the chain", seq)
		}
	}
	checkMatcherBlob(t, l, oracle)
}

// TestFullListRejectsNonCanonicalOrder: a checksum-valid full blob
// whose rules are out of order, or repeat a key, is ErrCorrupt. The
// header carries the rule set's true fingerprint, so the order check is
// the one that fires.
func TestFullListRejectsNonCanonicalOrder(t *testing.T) {
	_, target := testLists(t)
	sorted := oracleSorted(target)
	swapped := append([]psl.Rule(nil), sorted...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	dup := append(append(append([]psl.Rule(nil), sorted[:3]...), sorted[2]), sorted[3:]...)
	for name, rules := range map[string][]psl.Rule{"out of order": swapped, "duplicate": dup} {
		f, err := DecodeFull(encodeFullRaw(7, target.Fingerprint(), target.Date, target.Version, rules))
		if err != nil {
			t.Fatalf("%s: DecodeFull: %v", name, err)
		}
		if _, err := f.List(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: List err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestPreviewFingerprintMatchesAppendEvent: for random deltas at the
// tip, the streamed preview equals the fingerprint the chain reports
// once the event is appended — section moves (remove+add of one key),
// removals of absent rules and repeated additions included.
func TestPreviewFingerprintMatchesAppendEvent(t *testing.T) {
	h := history.Generate(history.Config{Versions: 40})
	c := NewChain(h)
	rng := rand.New(rand.NewSource(11))
	date := h.Meta(h.Len() - 1).Date
	for i := 0; i < 60; i++ {
		tip := h.ListAt(h.Len() - 1).Rules()
		var added, removed []psl.Rule
		for k := rng.Intn(4); k > 0; k-- {
			removed = append(removed, tip[rng.Intn(len(tip))])
		}
		for k := rng.Intn(4); k > 0; k-- {
			added = append(added, psl.Rule{Suffix: "preview" + string(rune('a'+rng.Intn(26))) + ".com", Section: psl.SectionPrivate})
		}
		switch i % 4 {
		case 0: // remove+add of one key: a section move
			r := tip[rng.Intn(len(tip))]
			removed = append(removed, r)
			r.Section = psl.SectionICANN + psl.SectionPrivate - r.Section
			added = append(added, r)
		case 1: // removal of an absent rule
			removed = append(removed, psl.Rule{Suffix: "absent.example", Section: psl.SectionPrivate})
		case 2: // an addition repeated, and one already present
			if len(added) > 0 {
				added = append(added, added[0])
			}
			added = append(added, tip[rng.Intn(len(tip))])
		}
		preview := c.PreviewFingerprint(added, removed)
		date = date.Add(time.Hour)
		meta := h.Append(date, added, removed)
		if got := c.AppendEvent(h.Events()[meta.Seq]); got != preview {
			t.Fatalf("delta %d: preview %s, appended %s (added %v, removed %v)", i, preview, got, added, removed)
		}
		if got := h.ListAt(meta.Seq).Fingerprint(); got != preview {
			t.Fatalf("delta %d: preview %s, replayed list %s", i, preview, got)
		}
	}
}
