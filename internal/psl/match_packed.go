package psl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/domain"
)

// PackedMatcher is the compiled matcher: a List frozen into flat buffers
// — one open-addressing hash table of uint64 slot words, one []uint32
// rule record region, and one byte arena. Every suffix that appears in
// the rule trie (each rule plus all of its ancestor suffixes) owns one
// slot keyed by its raw bytes: suffixes up to 16 bytes are held inline
// in two key words, so a lookup compares machine words instead of
// hashing strings or chasing per-node pointers, and longer suffixes fall
// back to one arena comparison. Match walks the name's suffixes
// right-to-left, probing once per label, stops as soon as the current
// suffix has no descendants in the trie, and allocates nothing.
//
// A compiled matcher is position-independent: Marshal renders it as a
// single copyable blob and Unmarshal reconstitutes it without
// recompiling, which is what lets the serving layer ship compiled
// versions around instead of rule text.
//
// Slot layout (slotWords uint64 each; the table is one contiguous
// []uint64):
//
//	kLo  | kHi  | meta | refs
//
// kLo/kHi pack the suffix bytes little-endian: bytes 0-7 in kLo and the
// remainder in kHi for suffixes up to 16 bytes (an injective encoding —
// key equality is string equality); longer suffixes store first-8 and
// last-8 bytes and are confirmed against the arena. meta packs, from
// bit 0: occupied, has-children, label count (14 bits), suffix byte
// length (bits 16-31), arena offset (bits 32-63).
//
// refs holds the node's two precomputed prevailing results: the low
// half answers a name that ends exactly at this suffix, the high half a
// name that extends past it (the only difference rule logic can
// observe: a wildcard at the node itself needs an extra label to its
// left). Each half packs rule index+1 in 21 bits (0 = the implicit "*"
// rule) and the prevailing suffix label count in the 11 bits above.
// The compiler walks each node's ancestor path right-to-left applying
// the prevailing-rule order — exceptions freeze the walk,
// longer rules beat shorter, wildcards claim one extra label — so
// Match never evaluates rule semantics at lookup time: it finds the
// deepest stored suffix of the name and reads the finished answer.
//
// Rule records (ruleWords uint32 each) are suffixOff | suffixLen |
// kindFlags, exactly the shape the Rule decoder reads back.
type PackedMatcher struct {
	table    []uint64 // capacity*slotWords, nil when the list is empty
	ruleRecs []uint32 // nRules*ruleWords
	// arena backs every slot suffix and rule suffix; kept as a string so
	// long-key confirmations and Rule suffixes are zero-copy slices.
	arena string
	// rules is the decoded rule table; entries view into arena.
	rules []Rule
	// texts holds each rule in list-file syntax, rendered once at
	// decode (a normal rule's text is its Suffix), so MatchText hands
	// out the prevailing rule's text without allocating.
	texts []string

	nRules, nNodes int
	mask           int  // capacity - 1
	shift          uint // 64 - log2(capacity)
}

// Region sizes of the packed layout.
const (
	ruleWords = 3 // uint32 words per rule record
	slotWords = 4 // uint64 words per table slot
)

// Slot meta bits.
const (
	packedOccupied    = 1 << 0
	packedHasChildren = 1 << 1
	packedLabelsShift = 2 // 14 bits
	packedLabelsMask  = 1<<14 - 1
	packedSlenShift   = 16 // 16 bits
	packedOffShift    = 32 // 32 bits
)

// Slot result fields: each 32-bit half of the refs word is one
// precomputed prevailing result — rule index+1 in the low 21 bits
// (0 = implicit) and the prevailing suffix label count in the 11 bits
// above.
const (
	packedRefBits       = 21
	packedRefMask       = 1<<packedRefBits - 1
	packedResLabelsBits = 11
	packedResLabelsMax  = 1<<packedResLabelsBits - 1
)

// Rule record kind flags.
const (
	packedRuleWildcard  = 1 << 0
	packedRuleException = 1 << 1
	packedRuleSection   = 2 // section in bits 2-3
)

// Multipliers for the two-word Fibonacci hash of a suffix key.
const (
	hashM1 = 0x9E3779B97F4A7C15
	hashM2 = 0xFF51AFD7ED558CCD
)

// SWAR byte masks for the in-register dot scan of the name's last
// eight bytes.
const (
	swarLo = 0x0101010101010101
	swarHi = 0x8080808080808080
)

// load64 reads 8 little-endian bytes of s starting at off; the caller
// guarantees off+8 <= len(s). The byte-or pattern compiles to a single
// unaligned load.
func load64(s string, off int) uint64 {
	b := s[off : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// packLE packs up to 8 bytes of s little-endian; labels never contain
// NUL, so the packing is injective across lengths 0-8.
func packLE(s string) uint64 {
	var k uint64
	for i := len(s) - 1; i >= 0; i-- {
		k = k<<8 | uint64(s[i])
	}
	return k
}

// suffixKeys computes the two key words for a stored suffix. Match
// derives the identical words from in-place loads on the name, so key
// equality (plus equal length) is byte equality for suffixes up to 16
// bytes and a strong filter beyond.
func suffixKeys(s string) (kLo, kHi uint64) {
	switch n := len(s); {
	case n <= 8:
		return packLE(s), 0
	case n <= 16:
		return load64(s, 0), packLE(s[8:])
	default:
		return load64(s, 0), load64(s, n-8)
	}
}

// suffixHash mixes the key words into table-index bits.
func suffixHash(kLo, kHi uint64) uint64 {
	return (kLo ^ kHi*hashM2) * hashM1
}

// pnode is one transient trie node of the compiler, keyed by its full
// suffix string.
type pnode struct {
	// rule indices into the list's rule order, or -1.
	normal, wildcard, exception int32
	labels                      int
	hasChildren                 bool
	// resExact/resExt are the node's precomputed prevailing results
	// (see the PackedMatcher comment), filled by the second compile
	// pass once every ancestor exists.
	resExact, resExt uint32
}

// presult is one prevailing result while the compiler walks a node's
// ancestor path right-to-left.
type presult struct {
	labels int32
	ref    uint32 // rule index+1; 0 = the implicit "*" rule
	frozen bool   // an exception already terminated the walk
}

// packResult freezes a presult into its 32-bit slot encoding.
func packResult(r presult) uint32 {
	return r.ref | uint32(r.labels)<<packedRefBits
}

// applyPath extends a path result with one more node, applying the
// prevailing-rule order for one suffix: exceptions prevail and end
// the walk, longer or equal normal rules replace the best, and a
// wildcard claims one extra label — unless the name ends exactly at
// this node (final), in which case there is no extra label for the
// wildcard to consume.
func applyPath(base presult, n *pnode, final bool) presult {
	if base.frozen {
		return base
	}
	depth := int32(n.labels)
	if n.exception >= 0 {
		return presult{labels: depth - 1, ref: uint32(n.exception) + 1, frozen: true}
	}
	r := base
	if n.normal >= 0 && depth >= r.labels {
		r = presult{labels: depth, ref: uint32(n.normal) + 1}
	}
	if !final && n.wildcard >= 0 && depth+1 >= r.labels {
		r = presult{labels: depth + 1, ref: uint32(n.wildcard) + 1}
	}
	return r
}

// NewPackedMatcher compiles the list into its packed representation.
// Compilation registers every rule suffix and its ancestors as trie
// nodes, then freezes them into the hash table in sorted-suffix order
// (which makes the layout, and therefore Marshal, deterministic).
//
// The packed encoding caps lists at MaxRules rules (Parse enforces it)
// and suffixes at 2^16-1 bytes; the real list is three orders of
// magnitude below both.
func NewPackedMatcher(l *List) *PackedMatcher {
	rules := l.Rules()
	if len(rules) >= packedRefMask {
		panic("psl: list too large for packed matcher")
	}
	nodes := make(map[string]*pnode, len(rules)*2)
	get := func(s string, labels int) *pnode {
		n := nodes[s]
		if n == nil {
			n = &pnode{normal: -1, wildcard: -1, exception: -1, labels: labels}
			nodes[s] = n
		}
		return n
	}
	for ri, r := range rules {
		name := r.Suffix
		if len(name) > 0xffff {
			panic("psl: rule suffix too long for packed matcher")
		}
		var last *pnode
		labels := 0
		for i := len(name); i > 0; {
			j := strings.LastIndexByte(name[:i], '.')
			s := name[j+1:]
			i = j
			labels++
			if labels >= packedResLabelsMax {
				panic("psl: rule too deep for packed matcher")
			}
			n := get(s, labels)
			if last != nil {
				last.hasChildren = true
			}
			last = n
		}
		if last == nil {
			continue // an empty suffix attaches nowhere
		}
		switch {
		case r.Exception:
			last.exception = int32(ri)
		case r.Wildcard:
			last.wildcard = int32(ri)
		default:
			last.normal = int32(ri)
		}
	}

	// Second pass: precompute every node's prevailing results. Parents
	// are processed before children (fewer labels first), so each node
	// extends its parent's extended-name result by one step of the walk.
	order := make([]string, 0, len(nodes))
	for s := range nodes {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return nodes[order[i]].labels < nodes[order[j]].labels })
	ext := make(map[string]presult, len(nodes))
	for _, s := range order {
		n := nodes[s]
		base := presult{labels: 1} // the implicit "*" default
		if n.labels > 1 {
			// The parent suffix drops the leftmost label; it exists
			// because the builder registers every ancestor.
			base = ext[s[strings.IndexByte(s, '.')+1:]]
		}
		n.resExact = packResult(applyPath(base, n, true))
		e := applyPath(base, n, false)
		ext[s] = e
		n.resExt = packResult(e)
	}

	// Intern every suffix into one arena.
	var arena []byte
	offs := make(map[string]uint32, len(nodes))
	intern := func(s string) uint32 {
		if off, ok := offs[s]; ok {
			return off
		}
		off := uint32(len(arena))
		arena = append(arena, s...)
		offs[s] = off
		return off
	}

	suffixes := make([]string, 0, len(nodes))
	for s := range nodes {
		suffixes = append(suffixes, s)
	}
	sort.Strings(suffixes)

	pm := &PackedMatcher{nRules: len(rules), nNodes: len(nodes)}
	if len(nodes) > 0 {
		logCap := uint(1)
		for 1<<logCap < len(nodes)+len(nodes)/2+1 {
			logCap++
		}
		pm.table = make([]uint64, (1<<logCap)*slotWords)
		pm.mask = 1<<logCap - 1
		pm.shift = 64 - logCap
		for _, s := range suffixes {
			n := nodes[s]
			kLo, kHi := suffixKeys(s)
			idx := int(suffixHash(kLo, kHi) >> pm.shift)
			for pm.table[idx*slotWords+2]&packedOccupied != 0 {
				idx = (idx + 1) & pm.mask
			}
			b := idx * slotWords
			meta := uint64(packedOccupied) |
				uint64(n.labels)<<packedLabelsShift |
				uint64(len(s))<<packedSlenShift |
				uint64(intern(s))<<packedOffShift
			if n.hasChildren {
				meta |= packedHasChildren
			}
			pm.table[b] = kLo
			pm.table[b+1] = kHi
			pm.table[b+2] = meta
			pm.table[b+3] = uint64(n.resExact) | uint64(n.resExt)<<32
		}
	}

	pm.ruleRecs = make([]uint32, len(rules)*ruleWords)
	for ri, r := range rules {
		w := ri * ruleWords
		pm.ruleRecs[w] = intern(r.Suffix)
		pm.ruleRecs[w+1] = uint32(len(r.Suffix))
		var kind uint32
		if r.Wildcard {
			kind |= packedRuleWildcard
		}
		if r.Exception {
			kind |= packedRuleException
		}
		kind |= uint32(r.Section) << packedRuleSection
		pm.ruleRecs[w+2] = kind
	}

	pm.arena = string(arena)
	pm.rules, pm.texts = decodeRules(pm.ruleRecs, pm.nRules, pm.arena)
	return pm
}

// decodeRules materialises the rule table from the rule records, each
// Suffix a zero-copy slice of the arena, together with every rule's
// list-file text (see PackedMatcher.texts).
func decodeRules(recs []uint32, nRules int, arena string) ([]Rule, []string) {
	rules := make([]Rule, nRules)
	texts := make([]string, nRules)
	for ri := 0; ri < nRules; ri++ {
		w := ri * ruleWords
		off, ln, kind := recs[w], recs[w+1], recs[w+2]
		rules[ri] = Rule{
			Suffix:    arena[off : off+ln],
			Wildcard:  kind&packedRuleWildcard != 0,
			Exception: kind&packedRuleException != 0,
			Section:   Section(kind >> packedRuleSection & 3),
		}
		texts[ri] = rules[ri].String()
	}
	return rules, texts
}

// Match implements Matcher. It probes one slot chain per label of the
// name, right-to-left, until the trie runs out of descendants, then
// reads the deepest hit's precomputed result — no rule logic runs at
// lookup time, and nothing allocates.
func (pm *PackedMatcher) Match(name string) Result {
	r := pm.match(name)
	if ref := r & packedRefMask; ref != 0 {
		return Result{SuffixLabels: int(r >> packedRefBits), Rule: pm.rules[ref-1]}
	}
	return Result{SuffixLabels: int(r >> packedRefBits), Implicit: true}
}

// MatchText is Match that also returns the prevailing rule in
// list-file syntax, exactly as Rule.String renders it, or "" for an
// implicit result. The text is held per compiled rule, so this
// allocates nothing where Rule.String allocates for every wildcard and
// exception rule.
func (pm *PackedMatcher) MatchText(name string) (Result, string) {
	r := pm.match(name)
	if ref := r & packedRefMask; ref != 0 {
		return Result{SuffixLabels: int(r >> packedRefBits), Rule: pm.rules[ref-1]}, pm.texts[ref-1]
	}
	return Result{SuffixLabels: int(r >> packedRefBits), Implicit: true}, ""
}

// implicitResult is the packed result of the implicit "*" rule: no rule
// reference, one suffix label.
const implicitResult = 1 << packedRefBits

// match walks the name and returns the deepest hit's packed result
// (one half of its refs word).
func (pm *PackedMatcher) match(name string) uint32 {
	table := pm.table
	if len(table) == 0 {
		return implicitResult
	}
	n := len(name)
	wbase := n - 8
	var window, dots uint64 // the name's last 8 bytes + their dot map
	if n >= 8 {
		window = load64(name, wbase)
		// Exact SWAR zero-byte detect of window^'.': the high bit of
		// each byte that held a dot.
		x := window ^ (swarLo * '.')
		dots = (x - swarLo) &^ x & swarHi
	}
	shift, mask := pm.shift, pm.mask
	lastB, lastJ := -1, 0 // deepest hit's slot base and label boundary
	for i := n; i > 0; {
		// Find the last '.' before i. Most labels sit inside the loaded
		// window, where the dot map answers without touching memory.
		j := -1
		if k := i - wbase; dots != 0 && k > 0 {
			if m := dots & (^uint64(0) >> uint(64-8*k)); m != 0 {
				j = wbase + (63-bits.LeadingZeros64(m))>>3
			} else if wbase > 0 {
				j = strings.LastIndexByte(name[:wbase], '.')
			}
		} else {
			j = strings.LastIndexByte(name[:i], '.')
		}
		slen := n - j - 1 // the suffix under test is name[j+1:]
		var kLo, kHi, h uint64
		switch {
		case slen <= 8:
			if n >= 8 {
				kLo = window >> uint(8*(8-slen))
			} else {
				kLo = packLE(name[j+1:])
			}
			h = kLo * hashM1
		case slen <= 16:
			kLo = load64(name, j+1)
			kHi = window >> uint(8*(16-slen))
			h = (kLo ^ kHi*hashM2) * hashM1
		default:
			kLo = load64(name, j+1)
			kHi = window
			h = (kLo ^ kHi*hashM2) * hashM1
		}
		idx := int(h >> shift)
		// One masked compare checks occupied and suffix length together;
		// equal keys then mean equal bytes for suffixes up to 16 bytes.
		want := uint64(slen)<<packedSlenShift | packedOccupied
		const hitMask = uint64(0xffff)<<packedSlenShift | packedOccupied
		var meta uint64
		b := 0
		for {
			b = idx * slotWords
			meta = table[b+2]
			if meta&hitMask == want && table[b] == kLo && table[b+1] == kHi {
				if slen <= 16 {
					break
				}
				off := meta >> packedOffShift
				if pm.arena[off:off+uint64(slen)] == name[j+1:] {
					break
				}
			} else if meta&packedOccupied == 0 {
				meta = 0 // no node for this suffix: no deeper rules either
				break
			}
			idx = (idx + 1) & mask
		}
		if meta == 0 {
			break
		}
		lastB, lastJ = b, j
		if meta&packedHasChildren == 0 || j < 0 {
			break
		}
		i = j
	}
	if lastB < 0 {
		return implicitResult
	}
	refs := table[lastB+3]
	if lastJ < 0 {
		return uint32(refs) // the name ended exactly at the hit node...
	}
	return uint32(refs >> 32) // ...or extends past it
}

// Len reports the number of compiled rules.
func (pm *PackedMatcher) Len() int { return pm.nRules }

// RulesFingerprint recomputes the rule-set fingerprint of the compiled
// rules — the same digest List.Fingerprint produces for the list the
// matcher was compiled from. Unmarshal's structural validation proves a
// blob is a well-formed matcher; this digest proves it is the matcher
// for a specific promised rule set, which is what lets a replica accept
// a pre-compiled blob without recompiling the rules itself.
func (pm *PackedMatcher) RulesFingerprint() string {
	rules := make([]Rule, len(pm.rules))
	copy(rules, pm.rules)
	sort.Slice(rules, func(i, j int) bool { return CompareRules(rules[i], rules[j]) < 0 })
	return FingerprintOfSorted(rules)
}

// SizeBytes reports the compiled footprint: slot table, rule records,
// and arena.
func (pm *PackedMatcher) SizeBytes() int {
	return len(pm.table)*8 + len(pm.ruleRecs)*4 + len(pm.arena)
}

// --- blob serialization ----------------------------------------------

// packedMagic identifies a marshalled PackedMatcher ("PSLP").
const packedMagic = 0x50534c50

// packedVersion is the blob format version; version 2 is the
// suffix-hash-table layout.
const packedVersion = 2

// packedHeaderLen is the fixed header size in bytes: magic, version,
// nRules, capacity, nNodes, arenaLen.
const packedHeaderLen = 6 * 4

// ErrBadBlob is wrapped by Unmarshal errors.
var ErrBadBlob = errors.New("psl: invalid packed matcher blob")

// Marshal renders the compiled matcher as a single blob: a fixed
// header, the rule records and slot table little-endian, then the arena
// bytes. The blob round-trips through Unmarshal to an equivalent
// matcher, byte-identically.
func (pm *PackedMatcher) Marshal() []byte {
	out := make([]byte, packedHeaderLen+len(pm.ruleRecs)*4+len(pm.table)*8+len(pm.arena))
	le := binary.LittleEndian
	le.PutUint32(out[0:], packedMagic)
	le.PutUint32(out[4:], packedVersion)
	le.PutUint32(out[8:], uint32(pm.nRules))
	le.PutUint32(out[12:], uint32(len(pm.table)/slotWords))
	le.PutUint32(out[16:], uint32(pm.nNodes))
	le.PutUint32(out[20:], uint32(len(pm.arena)))
	p := packedHeaderLen
	for _, w := range pm.ruleRecs {
		le.PutUint32(out[p:], w)
		p += 4
	}
	for _, w := range pm.table {
		le.PutUint64(out[p:], w)
		p += 8
	}
	copy(out[p:], pm.arena)
	return out
}

// UnmarshalPackedMatcher reconstitutes a compiled matcher from a blob
// produced by Marshal, validating the structure exhaustively so that
// truncated or corrupt blobs are rejected rather than producing a
// matcher that walks out of bounds.
func UnmarshalPackedMatcher(data []byte) (*PackedMatcher, error) {
	le := binary.LittleEndian
	if len(data) < packedHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrBadBlob, len(data))
	}
	if le.Uint32(data[0:]) != packedMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBlob)
	}
	if v := le.Uint32(data[4:]); v != packedVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrBadBlob, v)
	}
	nRules := int(le.Uint32(data[8:]))
	capacity := int(le.Uint32(data[12:]))
	nNodes := int(le.Uint32(data[16:]))
	arenaLen := int(le.Uint32(data[20:]))
	if nRules >= packedRefMask {
		return nil, fmt.Errorf("%w: rule count %d exceeds the encoding", ErrBadBlob, nRules)
	}
	if capacity == 0 {
		if nNodes != 0 {
			return nil, fmt.Errorf("%w: %d nodes but no table", ErrBadBlob, nNodes)
		}
	} else if capacity&(capacity-1) != 0 || nNodes >= capacity {
		return nil, fmt.Errorf("%w: capacity %d not a power of two above %d nodes", ErrBadBlob, capacity, nNodes)
	}
	want := packedHeaderLen + nRules*ruleWords*4 + capacity*slotWords*8 + arenaLen
	if arenaLen < 0 || capacity < 0 || nRules < 0 || len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes, header describes %d", ErrBadBlob, len(data), want)
	}
	recs := make([]uint32, nRules*ruleWords)
	p := packedHeaderLen
	for i := range recs {
		recs[i] = le.Uint32(data[p:])
		p += 4
	}
	table := make([]uint64, capacity*slotWords)
	for i := range table {
		table[i] = le.Uint64(data[p:])
		p += 8
	}
	arena := string(data[p:])

	pm := &PackedMatcher{
		ruleRecs: recs,
		arena:    arena,
		nRules:   nRules,
		nNodes:   nNodes,
	}
	if capacity > 0 {
		pm.table = table
		pm.mask = capacity - 1
		logCap := uint(0)
		for 1<<logCap < capacity {
			logCap++
		}
		pm.shift = 64 - logCap
	}
	if err := pm.validate(); err != nil {
		return nil, err
	}
	pm.rules, pm.texts = decodeRules(recs, nRules, arena)
	return pm, nil
}

// validate checks every offset, index and key in the buffers so a
// hostile blob cannot drive Match or the rule decoder out of bounds:
// rule suffixes stay inside the arena, occupied slot counts match the
// header (guaranteeing probe chains terminate on a free slot), stored
// keys and label counts are recomputed from the arena suffix, rule
// references stay inside the rule table, and unoccupied slots are
// canonically zero so re-marshalling is byte-identical.
func (pm *PackedMatcher) validate() error {
	arenaLen := uint32(len(pm.arena))
	for ri := 0; ri < pm.nRules; ri++ {
		w := ri * ruleWords
		off, ln, kind := pm.ruleRecs[w], pm.ruleRecs[w+1], pm.ruleRecs[w+2]
		if ln == 0 || off > arenaLen || off+ln > arenaLen || off+ln < off {
			return fmt.Errorf("%w: rule %d suffix out of arena bounds", ErrBadBlob, ri)
		}
		if kind&packedRuleWildcard != 0 && kind&packedRuleException != 0 {
			return fmt.Errorf("%w: rule %d is both wildcard and exception", ErrBadBlob, ri)
		}
	}
	occupied := 0
	for idx := 0; idx*slotWords < len(pm.table); idx++ {
		b := idx * slotWords
		kLo, kHi, meta, refs := pm.table[b], pm.table[b+1], pm.table[b+2], pm.table[b+3]
		if meta&packedOccupied == 0 {
			if kLo != 0 || kHi != 0 || meta != 0 || refs != 0 {
				return fmt.Errorf("%w: free slot %d not zeroed", ErrBadBlob, idx)
			}
			continue
		}
		occupied++
		slen := meta >> packedSlenShift & 0xffff
		off := uint32(meta >> packedOffShift)
		if slen == 0 || off > arenaLen || off+uint32(slen) > arenaLen || off+uint32(slen) < off {
			return fmt.Errorf("%w: slot %d suffix out of arena bounds", ErrBadBlob, idx)
		}
		s := pm.arena[off : off+uint32(slen)]
		wantLo, wantHi := suffixKeys(s)
		if kLo != wantLo || kHi != wantHi {
			return fmt.Errorf("%w: slot %d keys do not match suffix", ErrBadBlob, idx)
		}
		depth := meta >> packedLabelsShift & packedLabelsMask
		if got := uint64(domain.CountLabels(s)); depth != got {
			return fmt.Errorf("%w: slot %d label count mismatch", ErrBadBlob, idx)
		}
		for k, half := range [2]uint32{uint32(refs), uint32(refs >> 32)} {
			ref := half & packedRefMask
			labels := half >> packedRefBits
			if ref > uint32(pm.nRules) {
				return fmt.Errorf("%w: slot %d result %d rule index out of bounds", ErrBadBlob, idx, k)
			}
			if ref == 0 && labels != 1 {
				return fmt.Errorf("%w: slot %d result %d implicit with %d labels", ErrBadBlob, idx, k, labels)
			}
			// A prevailing result can never claim more labels than the
			// node's own depth plus a wildcard's extra label.
			if uint64(labels) > depth+1 {
				return fmt.Errorf("%w: slot %d result %d label count exceeds depth", ErrBadBlob, idx, k)
			}
		}
	}
	if occupied != pm.nNodes {
		return fmt.Errorf("%w: %d occupied slots, header says %d", ErrBadBlob, occupied, pm.nNodes)
	}
	return nil
}

var _ Matcher = (*PackedMatcher)(nil)
