package psl

import (
	"errors"
	"fmt"

	"repro/internal/domain"
	"repro/internal/idna"
)

// Errors returned by the lookup API.
var (
	// ErrNotDomain is returned for inputs that are empty, IP address
	// literals, or fail hostname validation.
	ErrNotDomain = errors.New("psl: not a valid domain name")
	// ErrIsSuffix is returned by Site when the name itself is a public
	// suffix and therefore has no registrable domain.
	ErrIsSuffix = errors.New("psl: name is a public suffix")
)

// Matcher returns the list's packed matcher, compiling it on first use.
// Lists are immutable after construction, so the matcher is compiled
// once for the list's lifetime and freed with it.
func (l *List) Matcher() *PackedMatcher {
	l.matcherOnce.Do(func() { l.matcher = NewPackedMatcher(l) })
	return l.matcher
}

// Normalize brings raw input into the canonical ASCII form the matchers
// expect: lowercased, IDNA A-labels, no trailing dot. Empty input, IP
// address literals and invalid hostnames are rejected with an error
// wrapping ErrNotDomain.
func Normalize(name string) (string, error) {
	name = domain.Normalize(name)
	if name == "" || domain.IsIP(name) {
		return "", fmt.Errorf("%w: %q", ErrNotDomain, name)
	}
	ascii, err := idna.ToASCII(name)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrNotDomain, err)
	}
	if err := domain.Check(ascii); err != nil {
		return "", fmt.Errorf("%w: %v", ErrNotDomain, err)
	}
	return ascii, nil
}

// PublicSuffix returns the public suffix (eTLD) of the name under this
// list version, and whether the prevailing rule came from the ICANN
// section. Unlisted TLDs fall back to the implicit "*" rule, matching
// browser behaviour, and report icann=false.
func (l *List) PublicSuffix(name string) (suffix string, icann bool, err error) {
	ascii, err := Normalize(name)
	if err != nil {
		return "", false, err
	}
	res := l.Matcher().Match(ascii)
	if res.SuffixLabels <= 0 {
		// A single-label exception rule would yield an empty suffix;
		// fall back to the rightmost label.
		res.SuffixLabels = 1
		res.Implicit = true
	}
	return domain.LastLabels(ascii, res.SuffixLabels), !res.Implicit && res.Rule.Section == SectionICANN, nil
}

// Site returns the registrable domain (site, eTLD+1) of the name under
// this list version: the public suffix plus one label. It errors if the
// name is itself a public suffix.
func (l *List) Site(name string) (string, error) {
	ascii, err := Normalize(name)
	if err != nil {
		return "", err
	}
	return l.siteASCII(ascii)
}

// siteASCII is Site for names already in canonical ASCII form. The bulk
// measurement pipeline uses it to skip re-normalization.
func (l *List) siteASCII(ascii string) (string, error) {
	res := l.Matcher().Match(ascii)
	n := res.SuffixLabels
	if n <= 0 {
		n = 1
	}
	total := domain.CountLabels(ascii)
	if total <= n {
		return "", fmt.Errorf("%w: %q", ErrIsSuffix, ascii)
	}
	return domain.LastLabels(ascii, n+1), nil
}

// SiteOrSelf returns the registrable domain, or the name itself when the
// name is a bare public suffix. The measurement pipeline uses this total
// function so every hostname maps to exactly one site.
func (l *List) SiteOrSelf(name string) string {
	ascii, err := Normalize(name)
	if err != nil {
		return name
	}
	site, err := l.siteASCII(ascii)
	if err != nil {
		return ascii
	}
	return site
}

// SameSite reports whether two hostnames belong to the same site under
// this list version — the check browsers make before allowing shared
// state across domains.
func (l *List) SameSite(a, b string) bool {
	return l.SiteOrSelf(a) == l.SiteOrSelf(b)
}

// IsThirdParty reports whether a request to requestHost made by a page on
// pageHost crosses a site boundary under this list version (the paper's
// Figure 6 classification).
func (l *List) IsThirdParty(pageHost, requestHost string) bool {
	return !l.SameSite(pageHost, requestHost)
}

// CookieDomainAllowed reports whether a page on host may set a cookie
// scoped to domainAttr (the Domain= cookie attribute): the attribute must
// be a non-suffix ancestor of (or equal to) the host within the same
// site. Rejecting public-suffix-scoped cookies is the "supercookie"
// filtering the paper describes.
func (l *List) CookieDomainAllowed(host, domainAttr string) bool {
	h, err1 := Normalize(host)
	d, err2 := Normalize(domainAttr)
	if err1 != nil || err2 != nil {
		return false
	}
	if !domain.HasSuffix(h, d) {
		return false
	}
	// The attribute must not be a public suffix (or shorter).
	suffix, _, err := l.PublicSuffix(h)
	if err != nil {
		return false
	}
	return domain.CountLabels(d) > domain.CountLabels(suffix)
}

// OrganizationalDomain returns the DMARC organizational domain of a name
// per RFC 7489 section 3.2, which is defined in terms of the public
// suffix list: the suffix plus one label. It differs from Site only in
// its fallback: a bare suffix is its own organizational domain.
func (l *List) OrganizationalDomain(name string) string {
	return l.SiteOrSelf(name)
}

// Cookiejar adapts a List to the PublicSuffixList interface expected by
// net/http/cookiejar, so the stdlib jar enforces this list version's
// boundaries. A stale list here is exactly the browser-harm scenario of
// the paper's Figure 1.
type Cookiejar struct {
	l *List
}

// NewCookiejarAdapter wraps the list for use with cookiejar.Options.
func NewCookiejarAdapter(l *List) *Cookiejar { return &Cookiejar{l: l} }

// PublicSuffix implements cookiejar.PublicSuffixList.
func (c *Cookiejar) PublicSuffix(host string) string {
	suffix, _, err := c.l.PublicSuffix(host)
	if err != nil {
		return host
	}
	return suffix
}

// String implements cookiejar.PublicSuffixList.
func (c *Cookiejar) String() string {
	v := c.l.Version
	if v == "" {
		v = "unversioned"
	}
	return "psl repro list " + v
}
