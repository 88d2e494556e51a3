package httparchive

import (
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/psl"
)

var (
	testHistory  = history.Generate(history.Config{Seed: history.DefaultSeed})
	testSnapshot = Generate(Config{Seed: 1, Scale: 0.05}, testHistory)
)

func TestHostsAreUniqueAndValid(t *testing.T) {
	seen := make(map[string]bool, len(testSnapshot.Hosts))
	for _, h := range testSnapshot.Hosts {
		if seen[h] {
			t.Fatalf("duplicate host %q", h)
		}
		seen[h] = true
		if strings.HasPrefix(h, ".") || strings.HasSuffix(h, ".") || strings.Contains(h, "..") {
			t.Fatalf("malformed host %q", h)
		}
	}
	if len(testSnapshot.Hosts) < 30000 {
		t.Errorf("only %d hosts at scale 0.05; Table 2 alone needs ~31k", len(testSnapshot.Hosts))
	}
}

// TestTable2CountsExact verifies the headline property: hostnames per
// Table 2 eTLD match the paper exactly, at any scale.
func TestTable2CountsExact(t *testing.T) {
	latest := testHistory.Latest()
	bySuffix := hostsBySuffix(latest, testSnapshot.Hosts)
	for suffix, want := range table2Hostnames {
		if got := bySuffix[suffix]; got != want {
			t.Errorf("hosts under %s = %d, want %d", suffix, got, want)
		}
	}
}

func TestPairsWellFormed(t *testing.T) {
	n := int32(len(testSnapshot.Hosts))
	var total int64
	for _, p := range testSnapshot.Pairs {
		if p.Page < 0 || p.Page >= n || p.Req < 0 || p.Req >= n {
			t.Fatalf("pair indexes out of range: %+v", p)
		}
		if p.Page == p.Req {
			t.Fatalf("self pair: %+v", p)
		}
		if p.Count <= 0 {
			t.Fatalf("non-positive count: %+v", p)
		}
		total += int64(p.Count)
	}
	if total != testSnapshot.Requests {
		t.Errorf("sum of pair counts %d != Requests %d", total, testSnapshot.Requests)
	}
	// Deterministic ordering.
	for i := 1; i < len(testSnapshot.Pairs); i++ {
		a, b := testSnapshot.Pairs[i-1], testSnapshot.Pairs[i]
		if a.Page > b.Page || (a.Page == b.Page && a.Req >= b.Req) {
			t.Fatal("pairs not sorted")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 1, Scale: 0.05}, testHistory)
	if len(a.Hosts) != len(testSnapshot.Hosts) || len(a.Pairs) != len(testSnapshot.Pairs) {
		t.Fatal("same seed produced different snapshot sizes")
	}
	for i := range a.Hosts {
		if a.Hosts[i] != testSnapshot.Hosts[i] {
			t.Fatalf("host %d differs", i)
		}
	}
	b := Generate(Config{Seed: 2, Scale: 0.05}, testHistory)
	if len(b.Hosts) == len(testSnapshot.Hosts) && len(b.Pairs) == len(testSnapshot.Pairs) {
		// Sizes agreeing is possible but full equality is not expected;
		// check at least one host differs.
		same := true
		for i := range b.Hosts {
			if b.Hosts[i] != testSnapshot.Hosts[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical snapshots")
		}
	}
}

func TestScaleGrowsPopulation(t *testing.T) {
	small := testSnapshot
	large := Generate(Config{Seed: 1, Scale: 0.15}, testHistory)
	if len(large.Hosts) <= len(small.Hosts) {
		t.Errorf("scale 0.15 (%d hosts) not larger than 0.05 (%d)", len(large.Hosts), len(small.Hosts))
	}
	if large.Requests <= small.Requests {
		t.Error("requests did not grow with scale")
	}
}

// TestRecentSuffixesUnpopulated: suffixes added after the July snapshot
// must carry no hostnames.
func TestRecentSuffixesUnpopulated(t *testing.T) {
	latest := testHistory.Latest()
	bySuffix := hostsBySuffix(latest, testSnapshot.Hosts)
	spans := testHistory.RuleSpans()
	for _, r := range latest.Rules() {
		ss := spans[r.String()]
		if len(ss) == 0 {
			continue
		}
		added := testHistory.Meta(ss[0].From).Date
		if added.After(SnapshotDate) && bySuffix[r.Suffix] > 0 {
			t.Errorf("suffix %s added %v (after snapshot) has %d hosts", r.Suffix, added, bySuffix[r.Suffix])
		}
	}
}

// TestDirectSLDHostsExist: the Figure 6 early-drop population is present
// for restructured ccTLDs.
func TestDirectSLDHostsExist(t *testing.T) {
	ccs := history.WildcardCCs()
	found := 0
	for _, h := range testSnapshot.Hosts {
		for _, cc := range ccs {
			if strings.HasSuffix(h, "."+cc) && strings.HasPrefix(h, "www.") &&
				strings.Count(h, ".") == 2 {
				found++
				break
			}
		}
		if found > 10 {
			break
		}
	}
	if found == 0 {
		t.Error("no direct second-level hosts under restructured ccTLDs")
	}
}

// TestPlatformSharedAssets: platform suffixes carry shared asset hosts
// (the Figure 6 rise population).
func TestPlatformSharedAssets(t *testing.T) {
	idx := make(map[string]bool, len(testSnapshot.Hosts))
	for _, h := range testSnapshot.Hosts {
		idx[h] = true
	}
	for _, s := range []string{"myshopify.com", "digitaloceanspaces.com", "netlify.app"} {
		if !idx["assets."+s] || !idx["cdn."+s] {
			t.Errorf("missing shared asset hosts for %s", s)
		}
	}
}

// TestHostsBySuffixTotal: every crawl host has a public suffix under the
// latest list, so grouping by suffix covers the whole snapshot.
func TestHostsBySuffixTotal(t *testing.T) {
	latest := testHistory.Latest()
	bySuffix := hostsBySuffix(latest, testSnapshot.Hosts)
	total := 0
	for _, n := range bySuffix {
		total += n
	}
	if total != len(testSnapshot.Hosts) {
		t.Errorf("suffix grouping covers %d of %d hosts", total, len(testSnapshot.Hosts))
	}
}

func BenchmarkGenerateScale05(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: 1, Scale: 0.05}, testHistory)
	}
}

// hostsBySuffix counts hostnames grouped by public suffix under the
// given list — the quantity Table 2 reports per eTLD.
func hostsBySuffix(l *psl.List, hosts []string) map[string]int {
	out := make(map[string]int, 4096)
	for _, h := range hosts {
		suffix, _, err := l.PublicSuffix(h)
		if err != nil {
			continue
		}
		out[suffix]++
	}
	return out
}

// TestCrawlHostsPackedAgreesWithLinear holds the packed matcher, which
// every production lookup and the Table 2 pass go through, to the
// linear reference on an evenly spaced sample of 2,000 crawl hosts
// under the head list, comparing full results.
func TestCrawlHostsPackedAgreesWithLinear(t *testing.T) {
	const sample = 2000
	latest := testHistory.Latest()
	packed, linear := latest.Matcher(), psl.NewLinearMatcher(latest)
	hosts := testSnapshot.Hosts
	if len(hosts) < sample {
		t.Fatalf("only %d hosts, want at least %d", len(hosts), sample)
	}
	for i := 0; i < sample; i++ {
		h := hosts[i*len(hosts)/sample]
		ascii, err := psl.Normalize(h)
		if err != nil {
			t.Fatalf("crawl host %q does not normalize: %v", h, err)
		}
		if got, want := packed.Match(ascii), linear.Match(ascii); got != want {
			t.Errorf("host %q: packed %+v, linear %+v", ascii, got, want)
		}
	}
}
