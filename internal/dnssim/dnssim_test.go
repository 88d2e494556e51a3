package dnssim

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

func TestResolveBasic(t *testing.T) {
	z := NewZone()
	z.Add("example.com", TypeA, "192.0.2.1")
	z.AddTXT("example.com", "hello")

	got, err := z.Resolve("EXAMPLE.com.", TypeA)
	if err != nil || len(got) != 1 || got[0] != "192.0.2.1" {
		t.Fatalf("A = %v, %v", got, err)
	}
	txt, err := z.TXT("example.com")
	if err != nil || txt[0] != "hello" {
		t.Fatalf("TXT = %v, %v", txt, err)
	}
}

func TestResolveErrors(t *testing.T) {
	z := NewZone()
	z.Add("example.com", TypeA, "192.0.2.1")

	_, err := z.Resolve("missing.example.com", TypeA)
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("missing name -> %v, want NXDOMAIN", err)
	}
	_, err = z.Resolve("example.com", TypeTXT)
	if !errors.Is(err, ErrNoData) {
		t.Errorf("missing type -> %v, want NoData", err)
	}
}

func TestCNAMEChase(t *testing.T) {
	z := NewZone()
	z.Add("alias.example.com", TypeCNAME, "target.example.net")
	z.Add("target.example.net", TypeA, "192.0.2.7")
	got, err := z.Resolve("alias.example.com", TypeA)
	if err != nil || got[0] != "192.0.2.7" {
		t.Fatalf("CNAME chase = %v, %v", got, err)
	}
	// Asking for the CNAME itself returns it directly.
	got, err = z.Resolve("alias.example.com", TypeCNAME)
	if err != nil || got[0] != "target.example.net" {
		t.Fatalf("CNAME direct = %v, %v", got, err)
	}
}

func TestCNAMELoop(t *testing.T) {
	z := NewZone()
	z.Add("a.example", TypeCNAME, "b.example")
	z.Add("b.example", TypeCNAME, "a.example")
	_, err := z.Resolve("a.example", TypeA)
	if !errors.Is(err, ErrLoop) {
		t.Errorf("loop -> %v, want ErrLoop", err)
	}
}

func TestWildcardOwner(t *testing.T) {
	z := NewZone()
	z.AddTXT("*.mail.example.com", "wild")
	z.AddTXT("special.mail.example.com", "explicit")

	got, err := z.TXT("anything.mail.example.com")
	if err != nil || got[0] != "wild" {
		t.Fatalf("wildcard = %v, %v", got, err)
	}
	got, err = z.TXT("special.mail.example.com")
	if err != nil || got[0] != "explicit" {
		t.Fatalf("explicit beats wildcard: %v, %v", got, err)
	}
	// The wildcard does not apply at its own parent.
	if _, err := z.TXT("mail.example.com"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("parent of wildcard -> %v, want NXDOMAIN", err)
	}
}

func TestRemove(t *testing.T) {
	z := NewZone()
	z.AddTXT("x.example", "v")
	z.Remove("x.example", TypeTXT)
	if _, err := z.TXT("x.example"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("after remove -> %v, want NXDOMAIN", err)
	}
}

func TestMultipleValues(t *testing.T) {
	z := NewZone()
	z.AddTXT("multi.example", "one")
	z.AddTXT("multi.example", "two")
	got, err := z.TXT("multi.example")
	if err != nil || len(got) != 2 {
		t.Fatalf("multi = %v, %v", got, err)
	}
}

func TestQueriesCounterAndDump(t *testing.T) {
	z := NewZone()
	z.Add("a.example", TypeA, "192.0.2.1")
	z.AddTXT("a.example", "t")
	_, _ = z.TXT("a.example")
	_, _ = z.Resolve("a.example", TypeA)
	if z.Queries() != 2 {
		t.Errorf("queries = %d, want 2", z.Queries())
	}
	dump := z.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump = %v", dump)
	}
	if dump[0].Type != TypeA || dump[1].Type != TypeTXT {
		t.Errorf("dump order = %v", dump)
	}
}

func TestResolveConcurrent(t *testing.T) {
	z := NewZone()
	z.AddTXT("c.example", "v")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				if _, err := z.TXT("c.example"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestRTypeString(t *testing.T) {
	if TypeA.String() != "A" || TypeTXT.String() != "TXT" || TypeCNAME.String() != "CNAME" {
		t.Error("record type names wrong")
	}
}

func TestTXTBehindCNAME(t *testing.T) {
	// The _psl convention in the wild: the TXT owner is an alias into a
	// hosting provider's zone, sometimes through several hops.
	z := NewZone()
	z.Add("_psl.platform.example", TypeCNAME, "psl-auth.hosting.example")
	z.Add("psl-auth.hosting.example", TypeCNAME, "final.hosting.example")
	z.AddTXT("final.hosting.example", "psl-submission-id")

	got, err := z.TXT("_psl.platform.example")
	if err != nil || len(got) != 1 || got[0] != "psl-submission-id" {
		t.Fatalf("TXT behind CNAME chain = %v, %v", got, err)
	}
}

func TestTXTCNAMELoop(t *testing.T) {
	z := NewZone()
	z.Add("_psl.a.example", TypeCNAME, "_psl.b.example")
	z.Add("_psl.b.example", TypeCNAME, "_psl.a.example")
	if _, err := z.TXT("_psl.a.example"); !errors.Is(err, ErrLoop) {
		t.Errorf("TXT loop -> %v, want ErrLoop", err)
	}
	// A one-hop self-alias is the tightest loop.
	z.Add("self.example", TypeCNAME, "self.example")
	if _, err := z.TXT("self.example"); !errors.Is(err, ErrLoop) {
		t.Errorf("self loop -> %v, want ErrLoop", err)
	}
}

func TestCNAMEChainTooDeep(t *testing.T) {
	// A loop-free chain longer than the chase bound is cut with the
	// depth error, not misreported as a loop.
	z := NewZone()
	for i := 0; i < 12; i++ {
		z.Add(fmt.Sprintf("hop%d.example", i), TypeCNAME, fmt.Sprintf("hop%d.example", i+1))
	}
	z.AddTXT("hop12.example", "end")
	_, err := z.TXT("hop0.example")
	if !errors.Is(err, ErrChainTooDeep) {
		t.Errorf("deep chain -> %v, want ErrChainTooDeep", err)
	}
	if errors.Is(err, ErrLoop) {
		t.Errorf("deep chain misreported as loop: %v", err)
	}
	// At or under the bound the chain resolves.
	z2 := NewZone()
	for i := 0; i < maxChase-1; i++ {
		z2.Add(fmt.Sprintf("hop%d.example", i), TypeCNAME, fmt.Sprintf("hop%d.example", i+1))
	}
	z2.AddTXT(fmt.Sprintf("hop%d.example", maxChase-1), "end")
	if got, err := z2.TXT("hop0.example"); err != nil || got[0] != "end" {
		t.Fatalf("chain at bound = %v, %v", got, err)
	}
}

func TestWildcardMultiLabel(t *testing.T) {
	// RFC 1034 wildcards cover one OR MORE labels below the owner; a
	// multi-label _psl owner like _psl.deep.customer.platform.example
	// must match *.platform.example.
	z := NewZone()
	z.AddTXT("*.platform.example", "wild")

	for _, name := range []string{
		"one.platform.example",
		"two.one.platform.example",
		"_psl.deep.customer.platform.example",
	} {
		got, err := z.TXT(name)
		if err != nil || got[0] != "wild" {
			t.Errorf("wildcard for %s = %v, %v", name, got, err)
		}
	}
	// The closest enclosing wildcard wins over an outer one.
	z.AddTXT("*.inner.platform.example", "inner")
	if got, _ := z.TXT("x.inner.platform.example"); got[0] != "inner" {
		t.Errorf("closest wildcard = %v, want inner", got)
	}
	if got, _ := z.TXT("a.b.inner.platform.example"); got[0] != "inner" {
		t.Errorf("closest wildcard multi-label = %v, want inner", got)
	}
}

func TestFaultPinned(t *testing.T) {
	z := NewZone()
	z.AddTXT("_psl.ok.example", "v")
	z.AddTXT("_psl.down.example", "v")

	z.SetFault("_psl.down.example", FaultTimeout)
	if _, err := z.TXT("_psl.down.example"); !errors.Is(err, ErrTimeout) {
		t.Errorf("pinned timeout -> %v, want ErrTimeout", err)
	}
	if _, err := z.TXT("_psl.ok.example"); err != nil {
		t.Errorf("unpinned name faulted: %v", err)
	}

	z.SetFault("_psl.down.example", FaultNXDomain)
	if _, err := z.TXT("_psl.down.example"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("pinned nxdomain -> %v, want ErrNXDomain", err)
	}

	z.SetFault("_psl.down.example", FaultNone)
	if _, err := z.TXT("_psl.down.example"); err != nil {
		t.Errorf("cleared fault still fires: %v", err)
	}
	if z.FaultsInjected() != 2 {
		t.Errorf("FaultsInjected = %d, want 2", z.FaultsInjected())
	}
}

func TestFaultRateSeeded(t *testing.T) {
	run := func() (faults int) {
		z := NewZone()
		z.AddTXT("r.example", "v")
		if err := failpoint.Arm("dnssim.resolve=err(0.3)", 42); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Disarm("dnssim.resolve")
		for i := 0; i < 200; i++ {
			if _, err := z.TXT("r.example"); err != nil {
				faults++
			}
		}
		return faults
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("seeded fault rate not reproducible: %d vs %d", a, b)
	}
	if a < 30 || a > 90 {
		t.Errorf("fault count %d wildly off a 0.3 rate over 200 queries", a)
	}
	// Disarming stops injection.
	z := NewZone()
	z.AddTXT("r.example", "v")
	if err := failpoint.Arm("dnssim.resolve=err(0.9)", 42); err != nil {
		t.Fatal(err)
	}
	failpoint.Disarm("dnssim.resolve")
	for i := 0; i < 50; i++ {
		if _, err := z.TXT("r.example"); err != nil {
			t.Fatalf("disarmed zone faulted: %v", err)
		}
	}
}

func TestZoneHandler(t *testing.T) {
	z := NewZone()
	ts := httptest.NewServer(z.Handler())
	defer ts.Close()

	body := `{"name":"_psl.newsuffix.example","type":"TXT","data":"sub-123"}`
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if got, err := z.TXT("_psl.newsuffix.example"); err != nil || got[0] != "sub-123" {
		t.Fatalf("record not planted: %v, %v", got, err)
	}

	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct{ Name, Type, Data string }
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(recs) != 1 || recs[0].Name != "_psl.newsuffix.example" || recs[0].Type != "TXT" {
		t.Fatalf("GET dump = %+v", recs)
	}

	// Bad bodies are rejected.
	for _, bad := range []string{`{`, `{"name":"","type":"TXT","data":"x"}`, `{"name":"n.example","type":"MX","data":"x"}`} {
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad body %q -> status %d", bad, resp.StatusCode)
		}
	}
}
