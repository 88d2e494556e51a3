// Package dnssim is a small in-memory DNS substrate: zones of A, TXT
// and CNAME records with CNAME chasing and wildcard owner names. The
// DMARC module (package dmarc) resolves policy records against it, and
// tests use it wherever the paper's pipeline would have queried the
// real DNS.
package dnssim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/domain"
	"repro/internal/failpoint"
)

// fpResolve is the resolver's seeded fault site: armed (for example
// `dnssim.resolve=err(0.3)`), each query not covered by a per-name pin
// may time out.
var fpResolve = failpoint.New("dnssim.resolve")

// RType is a record type.
type RType uint8

const (
	// TypeA is an IPv4 address record.
	TypeA RType = iota
	// TypeTXT is a text record.
	TypeTXT
	// TypeCNAME is an alias record.
	TypeCNAME
)

// String returns the conventional record type mnemonic.
func (t RType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeTXT:
		return "TXT"
	case TypeCNAME:
		return "CNAME"
	default:
		return "?"
	}
}

// Record is one resource record.
type Record struct {
	Name string
	Type RType
	Data string
}

// Errors returned by Resolve.
var (
	// ErrNXDomain reports that the name does not exist at all.
	ErrNXDomain = errors.New("dnssim: NXDOMAIN")
	// ErrNoData reports that the name exists but has no records of the
	// requested type.
	ErrNoData = errors.New("dnssim: no data")
	// ErrLoop reports a CNAME chain that revisited an owner name — a
	// genuine alias cycle that no amount of chasing resolves.
	ErrLoop = errors.New("dnssim: CNAME loop")
	// ErrChainTooDeep reports a loop-free CNAME chain longer than the
	// chase bound, the cap real resolvers apply before giving up.
	ErrChainTooDeep = errors.New("dnssim: CNAME chain too deep")
	// ErrTimeout reports an injected resolver timeout (a pinned fault or
	// the dnssim.resolve site; no real time passes).
	ErrTimeout = errors.New("dnssim: query timed out")
)

// maxChase bounds CNAME chain length, like real resolvers do.
const maxChase = 8

// FaultKind selects an injected failure for the fault layer. The DNS
// authorization leg of the submission pipeline uses these to model the
// two failure classes ZDNS-style bulk verification meets in practice:
// names that do not resolve and servers that never answer.
type FaultKind uint8

const (
	// FaultNone disables injection.
	FaultNone FaultKind = iota
	// FaultNXDomain answers NXDOMAIN regardless of zone contents.
	FaultNXDomain
	// FaultTimeout answers ErrTimeout, modelling an unresponsive server.
	FaultTimeout
)

// String names the fault for logs and verdicts.
func (k FaultKind) String() string {
	switch k {
	case FaultNXDomain:
		return "nxdomain"
	case FaultTimeout:
		return "timeout"
	default:
		return "none"
	}
}

// Zone is a thread-safe record store.
type Zone struct {
	mu sync.RWMutex
	// records maps normalized owner name -> type -> data values.
	records map[string]map[RType][]string
	queries int

	// Fault layer: per-name pinned faults win over the dnssim.resolve
	// site.
	faultMu   sync.Mutex
	perName   map[string]FaultKind
	faultsHit int
}

// NewZone creates an empty zone.
func NewZone() *Zone {
	return &Zone{
		records: make(map[string]map[RType][]string),
		perName: make(map[string]FaultKind),
	}
}

// SetFault pins a deterministic fault for queries whose original name
// (before CNAME chasing) matches. FaultNone clears the pin.
func (z *Zone) SetFault(name string, k FaultKind) {
	name = domain.Normalize(name)
	z.faultMu.Lock()
	defer z.faultMu.Unlock()
	if k == FaultNone {
		delete(z.perName, name)
		return
	}
	z.perName[name] = k
}

// FaultsInjected reports how many queries took an injected fault.
func (z *Zone) FaultsInjected() int {
	z.faultMu.Lock()
	defer z.faultMu.Unlock()
	return z.faultsHit
}

// decideFault resolves the fault layer for one query name.
func (z *Zone) decideFault(name string) FaultKind {
	z.faultMu.Lock()
	defer z.faultMu.Unlock()
	if k, ok := z.perName[name]; ok {
		z.faultsHit++
		return k
	}
	if fpResolve.Inject() != nil {
		z.faultsHit++
		return FaultTimeout
	}
	return FaultNone
}

// Add inserts a record. Owner names may carry a leading "*." label for
// wildcard records (matched per RFC 1034: one or more labels).
func (z *Zone) Add(name string, t RType, data string) {
	name = domain.Normalize(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	byType := z.records[name]
	if byType == nil {
		byType = make(map[RType][]string)
		z.records[name] = byType
	}
	byType[t] = append(byType[t], data)
}

// AddTXT is shorthand for Add(name, TypeTXT, data).
func (z *Zone) AddTXT(name, data string) { z.Add(name, TypeTXT, data) }

// Remove deletes all records of a type at a name.
func (z *Zone) Remove(name string, t RType) {
	name = domain.Normalize(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	if byType := z.records[name]; byType != nil {
		delete(byType, t)
		if len(byType) == 0 {
			delete(z.records, name)
		}
	}
}

// Queries reports how many lookups the zone has served.
func (z *Zone) Queries() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.queries
}

// lookupOne finds records at exactly one owner name, considering
// wildcard owners.
func (z *Zone) lookupOne(name string, t RType) (values []string, cname string, exists bool) {
	byType, ok := z.records[name]
	if !ok {
		// Wildcard match per RFC 1034 §4.3.3: "*.owner" covers any name
		// one OR MORE labels below owner that has no explicit entry, so
		// walk every ancestor from the closest up; the closest enclosing
		// wildcard wins (multi-label owners like a.b under *.example
		// match, which is exactly how multi-label _psl TXT owners are
		// published in the wild).
		for p, has := domain.Parent(name); has; p, has = domain.Parent(p) {
			if wc, ok := z.records["*."+p]; ok {
				byType = wc
				break
			}
		}
	}
	if byType == nil {
		return nil, "", false
	}
	if c, ok := byType[TypeCNAME]; ok && len(c) > 0 && t != TypeCNAME {
		return nil, c[0], true
	}
	return byType[t], "", true
}

// Resolve looks up records of the given type, chasing CNAMEs for every
// query type (TXT included — the _psl authorization convention leans on
// TXT-behind-CNAME delegation). Chains are bounded two ways: an owner
// name seen twice is a loop (ErrLoop), and a loop-free chain longer
// than maxChase hops is cut with ErrChainTooDeep.
func (z *Zone) Resolve(name string, t RType) ([]string, error) {
	name = domain.Normalize(name)
	z.mu.Lock()
	z.queries++
	z.mu.Unlock()

	switch z.decideFault(name) {
	case FaultNXDomain:
		return nil, fmt.Errorf("%w: %s %s (injected)", ErrNXDomain, name, t)
	case FaultTimeout:
		return nil, fmt.Errorf("%w: %s %s (injected)", ErrTimeout, name, t)
	}

	z.mu.RLock()
	defer z.mu.RUnlock()
	seen := map[string]bool{name: true}
	for hop := 0; hop < maxChase; hop++ {
		values, cname, exists := z.lookupOne(name, t)
		if !exists {
			return nil, fmt.Errorf("%w: %s %s", ErrNXDomain, name, t)
		}
		if cname != "" {
			name = domain.Normalize(cname)
			if seen[name] {
				return nil, fmt.Errorf("%w: %s", ErrLoop, name)
			}
			seen[name] = true
			continue
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("%w: %s %s", ErrNoData, name, t)
		}
		out := make([]string, len(values))
		copy(out, values)
		return out, nil
	}
	return nil, fmt.Errorf("%w: %s (limit %d)", ErrChainTooDeep, name, maxChase)
}

// TXT resolves text records, the shape DMARC needs.
func (z *Zone) TXT(name string) ([]string, error) {
	return z.Resolve(name, TypeTXT)
}

// Dump returns all records sorted by owner for debugging.
func (z *Zone) Dump() []Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []Record
	for name, byType := range z.records {
		for t, values := range byType {
			for _, v := range values {
				out = append(out, Record{Name: name, Type: t, Data: v})
			}
		}
	}
	sortRecords(out)
	return out
}

func sortRecords(rs []Record) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func less(a, b Record) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Data < b.Data
}

// Resolver is the lookup interface consumed by package dmarc, satisfied
// by *Zone.
type Resolver interface {
	TXT(name string) ([]string, error)
}

// ensure Zone satisfies Resolver.
var _ Resolver = (*Zone)(nil)
